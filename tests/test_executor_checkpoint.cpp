// Fault-tolerant execution layer tests: RetryPolicy/retry accounting,
// quarantine semantics inside the AL loop, censored-measurement routing,
// GP fit diagnostics and refit fallback, RNG state round-trips, and the
// golden checkpoint/resume property — a campaign interrupted half-way and
// resumed from its serialized checkpoint must reproduce the uninterrupted
// trace bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "core/checkpoint.hpp"
#include "core/continuous.hpp"
#include "core/dispatch.hpp"
#include "core/learner.hpp"
#include "gp/kernels.hpp"

namespace al = alperf::al;
namespace gp = alperf::gp;
namespace la = alperf::la;
namespace data = alperf::data;
using alperf::Measurement;
using alperf::MeasurementStatus;
using alperf::stats::Rng;

namespace {

al::RegressionProblem syntheticProblem(std::size_t n = 50) {
  al::RegressionProblem p;
  p.x = la::Matrix(n, 1);
  p.y.resize(n);
  p.cost.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    p.x(i, 0) = 10.0 * t;
    p.y[i] = std::sin(6.0 * t) + 0.3 * t;
    p.cost[i] = 1.0 + 0.5 * t;
  }
  p.featureNames = {"x"};
  p.responseName = "y";
  return p;
}

gp::GaussianProcess smallGp() {
  gp::GpConfig cfg;
  cfg.nRestarts = 1;
  cfg.noise.lo = 1e-4;
  return gp::GaussianProcess(gp::makeSquaredExponential(1.0, 1.0), cfg);
}

al::ActiveLearner makeLearner(int maxIterations, al::AlConfig base = {}) {
  base.nInitial = 3;
  base.maxIterations = maxIterations;
  base.refitEvery = 2;  // exercise both the refit and the posterior path
  return al::ActiveLearner(syntheticProblem(), smallGp(),
                           std::make_unique<al::VarianceReduction>(), base);
}

void expectSameHistory(const std::vector<al::IterationRecord>& a,
                       const std::vector<al::IterationRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].iteration, b[i].iteration) << "iter " << i;
    EXPECT_EQ(a[i].chosenRow, b[i].chosenRow) << "iter " << i;
    EXPECT_DOUBLE_EQ(a[i].sigmaAtPick, b[i].sigmaAtPick) << "iter " << i;
    EXPECT_DOUBLE_EQ(a[i].muAtPick, b[i].muAtPick) << "iter " << i;
    EXPECT_DOUBLE_EQ(a[i].amsd, b[i].amsd) << "iter " << i;
    EXPECT_DOUBLE_EQ(a[i].rmse, b[i].rmse) << "iter " << i;
    EXPECT_DOUBLE_EQ(a[i].pickCost, b[i].pickCost) << "iter " << i;
    EXPECT_DOUBLE_EQ(a[i].cumulativeCost, b[i].cumulativeCost)
        << "iter " << i;
    EXPECT_DOUBLE_EQ(a[i].noiseVariance, b[i].noiseVariance) << "iter " << i;
    EXPECT_DOUBLE_EQ(a[i].lml, b[i].lml) << "iter " << i;
    EXPECT_DOUBLE_EQ(a[i].failedAttempts, b[i].failedAttempts)
        << "iter " << i;
    EXPECT_DOUBLE_EQ(a[i].wastedCost, b[i].wastedCost) << "iter " << i;
    EXPECT_DOUBLE_EQ(a[i].censored, b[i].censored) << "iter " << i;
  }
}

/// Runs one measurement through a width-1 dispatcher (on this thread) and
/// returns its retry-state-machine outcome.
al::ExecutionResult executeOnce(al::AsyncDispatcher& dispatcher) {
  const double x[] = {0.0};
  dispatcher.submit(al::Oracle::kNoRow, x);
  return dispatcher.commitNext().result;
}

/// Overwrites one cell of a CSV file written by saveCheckpoint: the
/// named column of the given 1-based data row (the header is row 0).
void setCsvCell(const std::string& path, const std::string& column,
                std::size_t row, const std::string& value) {
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  const auto split = [](const std::string& line) {
    std::vector<std::string> cells;
    std::stringstream ss(line);
    for (std::string cell; std::getline(ss, cell, ',');)
      cells.push_back(cell);
    return cells;
  };
  const auto header = split(lines.at(0));
  const auto col = static_cast<std::size_t>(
      std::find(header.begin(), header.end(), column) - header.begin());
  auto cells = split(lines.at(row));
  cells.at(col) = value;
  std::string joined;
  for (std::size_t i = 0; i < cells.size(); ++i)
    joined += (i > 0 ? "," : "") + cells[i];
  lines[row] = joined;
  std::ofstream out(path);
  for (const auto& line : lines) out << line << '\n';
}

void removeCheckpointFiles(const std::string& prefix) {
  for (const char* suffix : {".meta.csv", ".trace.csv", ".sets.csv"})
    std::remove((prefix + suffix).c_str());
}

}  // namespace

// ---------------------------------------- retry policy + executor

TEST(RetryPolicy, ValidationRejectsNonsense) {
  const auto check = [](auto mutate) {
    al::RetryPolicy p;
    mutate(p);
    p.validate();
  };
  EXPECT_THROW(check([](al::RetryPolicy& p) { p.maxRetries = -1; }),
               std::invalid_argument);
  EXPECT_THROW(check([](al::RetryPolicy& p) { p.backoffCostBase = -1.0; }),
               std::invalid_argument);
  EXPECT_THROW(check([](al::RetryPolicy& p) { p.backoffGrowth = 0.5; }),
               std::invalid_argument);
  EXPECT_THROW(check([](al::RetryPolicy& p) { p.backoffCostCap = -1.0; }),
               std::invalid_argument);
  EXPECT_NO_THROW(check([](al::RetryPolicy&) {}));
}

TEST(RetryPolicy, BackoffGrowsExponentiallyToCap) {
  al::RetryPolicy p;
  p.backoffCostBase = 2.0;
  p.backoffGrowth = 3.0;
  p.backoffCostCap = 10.0;
  EXPECT_DOUBLE_EQ(p.backoffCost(1), 2.0);
  EXPECT_DOUBLE_EQ(p.backoffCost(2), 6.0);
  EXPECT_DOUBLE_EQ(p.backoffCost(3), 10.0);  // 18 capped
  EXPECT_DOUBLE_EQ(p.backoffCost(9), 10.0);
  al::RetryPolicy free;  // zero base: retries carry no surcharge
  EXPECT_DOUBLE_EQ(free.backoffCost(5), 0.0);
}

TEST(Executor, RetriesUntilSuccessAndChargesWaste) {
  al::ExecutionConfig exec;
  exec.retry.maxRetries = 3;
  exec.retry.backoffCostBase = 1.0;
  exec.retry.backoffGrowth = 2.0;
  int calls = 0;
  al::AsyncDispatcher dispatcher(
      [&](std::span<const double>) {
        ++calls;
        if (calls < 3) return Measurement::failed(0.5);
        return Measurement::ok(42.0, 3.0);
      },
      exec);
  const auto result = executeOnce(dispatcher);
  EXPECT_EQ(calls, 3);
  EXPECT_FALSE(result.quarantined);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(result.measurement.status, MeasurementStatus::Ok);
  EXPECT_DOUBLE_EQ(result.measurement.y, 42.0);
  // Two failed attempts at 0.5 each, plus backoff surcharges 1 and 2.
  EXPECT_DOUBLE_EQ(result.wastedCost, 0.5 + 1.0 + 0.5 + 2.0);
  EXPECT_DOUBLE_EQ(result.totalCost(), result.wastedCost + 3.0);
  EXPECT_DOUBLE_EQ(dispatcher.totalWastedCost(), result.wastedCost);
  EXPECT_EQ(dispatcher.totalFailedAttempts(), 2);
  EXPECT_EQ(dispatcher.totalQuarantined(), 0);
}

TEST(Executor, QuarantinesAfterExhaustingRetries) {
  al::ExecutionConfig exec;
  exec.retry.maxRetries = 2;
  int calls = 0;
  al::AsyncDispatcher dispatcher(
      [&](std::span<const double>) {
        ++calls;
        return Measurement::failed(1.0);
      },
      exec);
  const auto result = executeOnce(dispatcher);
  EXPECT_EQ(calls, 3);  // initial + 2 retries
  EXPECT_TRUE(result.quarantined);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_DOUBLE_EQ(result.wastedCost, 3.0);
  EXPECT_DOUBLE_EQ(result.totalCost(), 3.0);  // nothing useful was bought
  EXPECT_EQ(dispatcher.totalQuarantined(), 1);
  EXPECT_EQ(dispatcher.totalFailedAttempts(), 3);
}

TEST(Executor, BackendInternalWasteJoinsTheLedger) {
  al::AsyncDispatcher dispatcher(
      [](std::span<const double>) {
        Measurement m = Measurement::ok(5.0, 2.0);
        m.wastedCost = 7.0;  // e.g. the scheduler requeued twice internally
        m.attempts = 3;
        return m;
      },
      al::ExecutionConfig{});
  const auto result = executeOnce(dispatcher);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_DOUBLE_EQ(result.wastedCost, 7.0);
  EXPECT_DOUBLE_EQ(result.measurement.wastedCost, 0.0);  // moved out
  EXPECT_DOUBLE_EQ(dispatcher.totalWastedCost(), 7.0);
  EXPECT_EQ(dispatcher.totalFailedAttempts(), 2);
}

// ---------------------------------------- RNG state round-trip

TEST(RngState, SaveRestoreReproducesStream) {
  Rng a(123);
  a.uniformReal(0.0, 1.0);
  a.normal();  // leaves a Box–Muller spare pending
  const auto s = a.saveState();
  std::vector<double> expected;
  for (int i = 0; i < 20; ++i) expected.push_back(a.normal());
  Rng b(999);  // entirely different stream until restored
  b.restoreState(s);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(b.normal(), expected[i]);
}

// ---------------------------------------- GP fit diagnostics + fallback

TEST(FitDiagnostics, RecordsRejectedFitOnDivergentObjective) {
  gp::GaussianProcess g = smallGp();
  la::Matrix x(5, 1);
  la::Vector y(5);
  for (std::size_t i = 0; i < 5; ++i) {
    x(i, 0) = static_cast<double>(i);
    // Huge responses overflow y·α in the LML: every proposal is -inf.
    y[i] = 1e155 * (1.0 + static_cast<double>(i));
  }
  Rng rng(3);
  EXPECT_EQ(g.diagnostics().total(), 0);
  try {
    g.fit(x, y, rng);
  } catch (const alperf::NumericalError&) {
    // Acceptable: the degenerate posterior may refuse to factorize.
  }
  EXPECT_GT(g.diagnostics().nonFiniteObjectives, 0);
  EXPECT_GE(g.diagnostics().rejectedFits, 1);
  g.resetDiagnostics();
  EXPECT_EQ(g.diagnostics().total(), 0);
}

TEST(FitDiagnostics, CleanFitLeavesCountersAtZero) {
  gp::GaussianProcess g = smallGp();
  la::Matrix x(6, 1);
  la::Vector y(6);
  for (std::size_t i = 0; i < 6; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = std::sin(static_cast<double>(i));
  }
  Rng rng(4);
  g.fit(x, y, rng);
  EXPECT_EQ(g.diagnostics().rejectedFits, 0);
}

TEST(SetThetaFull, ValidatesAndRoundTrips) {
  gp::GaussianProcess g = smallGp();
  const auto theta = g.thetaFull();
  std::vector<double> perturbed(theta.begin(), theta.end());
  for (double& t : perturbed) t += 0.25;
  g.setThetaFull(perturbed);
  const auto back = g.thetaFull();
  ASSERT_EQ(back.size(), perturbed.size());
  for (std::size_t i = 0; i < back.size(); ++i)
    EXPECT_DOUBLE_EQ(back[i], perturbed[i]);
  EXPECT_THROW(g.setThetaFull(std::vector<double>{1.0}),
               std::invalid_argument);
  perturbed[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(g.setThetaFull(perturbed), std::invalid_argument);
}

// ---------------------------------------- fallible AL loop

TEST(FallibleLoop, QuarantinesAndChargesWithoutThrowing) {
  const auto problem = syntheticProblem();
  const auto learner = makeLearner(20);
  Rng partRng(42);
  const auto partition = alperf::data::triPartition(problem.size(), 3, 0.8,
                                                    partRng);
  // Rows ≡ 2 (mod 5) always fail; everything else measures cleanly.
  const auto alwaysFails = [](std::size_t row) { return row % 5 == 2; };
  const al::Oracle oracle = [&](std::size_t row) {
    if (alwaysFails(row)) return Measurement::failed(0.5);
    return Measurement::ok(problem.y[row], problem.cost[row]);
  };
  al::RetryPolicy policy;
  policy.maxRetries = 1;
  policy.backoffCostBase = 0.25;
  Rng rng(7);
  const auto result =
      learner.runFallibleWithPartition(oracle, policy, partition, rng);

  EXPECT_EQ(result.history.size(), 20u);
  double expectedCumulative = 0.0;
  std::set<std::size_t> seen;
  for (const auto& rec : result.history) {
    EXPECT_TRUE(seen.insert(rec.chosenRow).second)
        << "row " << rec.chosenRow << " picked twice";
    expectedCumulative += rec.pickCost + rec.wastedCost;
    EXPECT_DOUBLE_EQ(rec.cumulativeCost, expectedCumulative);
    if (alwaysFails(rec.chosenRow)) {
      EXPECT_DOUBLE_EQ(rec.pickCost, 0.0);
      EXPECT_DOUBLE_EQ(rec.failedAttempts, 2.0);
      // Two burned attempts at 0.5 plus the single backoff surcharge.
      EXPECT_DOUBLE_EQ(rec.wastedCost, 1.25);
    } else {
      EXPECT_DOUBLE_EQ(rec.failedAttempts, 0.0);
      EXPECT_DOUBLE_EQ(rec.wastedCost, 0.0);
    }
  }
  for (const std::size_t row : result.quarantined()) {
    EXPECT_TRUE(alwaysFails(row));
    EXPECT_EQ(std::count(result.checkpoint.train.begin(),
                         result.checkpoint.train.end(), row),
              0)
        << "quarantined row " << row << " reached the training set";
    EXPECT_EQ(std::count(result.checkpoint.pool.begin(),
                         result.checkpoint.pool.end(), row),
              0)
        << "quarantined row " << row << " still selectable";
  }
  // Every quarantined pick burned budget: the trace must show it.
  if (!result.quarantined().empty()) {
    EXPECT_GT(result.history.back().cumulativeCost,
              std::accumulate(result.history.begin(), result.history.end(),
                              0.0, [](double acc, const auto& r) {
                                return acc + r.pickCost;
                              }));
  }
}

TEST(FallibleLoop, CensoredMeasurementsTrainOnLowerBound) {
  const auto problem = syntheticProblem();
  const auto learner = makeLearner(15);
  Rng partRng(42);
  const auto partition = alperf::data::triPartition(problem.size(), 3, 0.8,
                                                    partRng);
  const auto isCensored = [](std::size_t row) { return row % 4 == 1; };
  const al::Oracle oracle = [&](std::size_t row) {
    if (isCensored(row))
      return Measurement::censored(0.8 * problem.y[row], problem.cost[row]);
    return Measurement::ok(problem.y[row], problem.cost[row]);
  };
  Rng rng(7);
  const auto result = learner.runFallibleWithPartition(
      oracle, al::RetryPolicy{}, partition, rng);
  EXPECT_TRUE(result.quarantined().empty());
  for (const auto& rec : result.history)
    EXPECT_DOUBLE_EQ(rec.censored,
                     isCensored(rec.chosenRow) ? 1.0 : 0.0);
  const auto& cp = result.checkpoint;
  ASSERT_EQ(cp.train.size(), cp.trainY.size());
  for (std::size_t i = 0; i < cp.train.size(); ++i) {
    const std::size_t row = cp.train[i];
    // Initial-partition rows come pre-measured from the table; only rows
    // consumed through the oracle can be censored.
    const bool seedRow =
        std::count(partition.initial.begin(), partition.initial.end(), row) >
        0;
    const double expected = (!seedRow && isCensored(row))
                                ? 0.8 * problem.y[row]
                                : problem.y[row];
    EXPECT_DOUBLE_EQ(cp.trainY[i], expected) << "row " << row;
  }
}

TEST(FallibleLoop, AllRowsFailingStopsOracleExhausted) {
  const auto learner = makeLearner(-1);  // run until the pool drains
  Rng partRng(42);
  const auto partition =
      alperf::data::triPartition(learner.problem().size(), 3, 0.8, partRng);
  const al::Oracle oracle = [](std::size_t) {
    return Measurement::failed(1.0);
  };
  al::RetryPolicy policy;
  policy.maxRetries = 0;
  Rng rng(7);
  const auto result =
      learner.runFallibleWithPartition(oracle, policy, partition, rng);
  EXPECT_EQ(result.stopReason, al::StopReason::OracleExhausted);
  EXPECT_EQ(result.quarantined().size(), partition.active.size());
  EXPECT_TRUE(result.checkpoint.pool.empty());
  // The initial seed rows keep the final GP alive despite zero successes.
  EXPECT_EQ(result.checkpoint.train.size(), partition.initial.size());
}

// ---------------------------------------- continuous fallible loop

TEST(ContinuousFallible, ConsecutiveFailuresAbort) {
  la::Matrix x(5, 1);
  la::Vector y(5);
  for (std::size_t i = 0; i < 5; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = std::sin(static_cast<double>(i));
  }
  const al::Oracle oracle = [](std::span<const double>) {
    return Measurement::failed(2.0);
  };
  al::RetryPolicy policy;
  policy.maxRetries = 0;
  al::ContinuousAlConfig cfg;
  cfg.iterations = 30;
  cfg.nStarts = 2;
  cfg.maxConsecutiveFailures = 3;
  Rng rng(11);
  const auto result = al::runContinuousAl(
      smallGp(), x, y, alperf::opt::BoxBounds({0.0}, {4.0}), oracle, policy,
      al::varianceAcquisition(), cfg, rng);
  EXPECT_EQ(result.stopReason, al::StopReason::OracleExhausted);
  EXPECT_EQ(result.history.size(), 3u);
  EXPECT_DOUBLE_EQ(result.wastedCost, 6.0);
  for (const auto& rec : result.history) {
    EXPECT_FALSE(rec.measured);
    EXPECT_DOUBLE_EQ(rec.wastedCost, 2.0);
  }
}

TEST(ContinuousFallible, HealthyOracleRunsToCompletion) {
  la::Matrix x(5, 1);
  la::Vector y(5);
  for (std::size_t i = 0; i < 5; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = std::sin(static_cast<double>(i));
  }
  const al::Oracle oracle = [](std::span<const double> q) {
    return Measurement::ok(std::sin(q[0]), 1.0);
  };
  al::ContinuousAlConfig cfg;
  cfg.iterations = 6;
  cfg.nStarts = 2;
  Rng rng(11);
  const auto result = al::runContinuousAl(
      smallGp(), x, y, alperf::opt::BoxBounds({0.0}, {4.0}), oracle,
      al::RetryPolicy{}, al::varianceAcquisition(), cfg, rng);
  EXPECT_EQ(result.stopReason, al::StopReason::MaxIterations);
  EXPECT_EQ(result.history.size(), 6u);
  EXPECT_DOUBLE_EQ(result.wastedCost, 0.0);
  for (const auto& rec : result.history) EXPECT_TRUE(rec.measured);
  EXPECT_EQ(result.finalGp.numTrainPoints(), 11u);
}

// ---------------------------------------- checkpoint serialization

TEST(CheckpointIo, RoundTripsEveryField) {
  const auto learner = makeLearner(12);
  Rng partRng(42);
  const auto partition =
      alperf::data::triPartition(learner.problem().size(), 3, 0.8, partRng);
  Rng rng(5);
  const auto result = learner.runWithPartition(partition, rng);
  const auto& cp = result.checkpoint;

  const std::string prefix = "alperf_test_ckpt_roundtrip";
  al::saveCheckpoint(cp, prefix);
  const auto loaded = al::loadCheckpoint(prefix);
  removeCheckpointFiles(prefix);

  EXPECT_EQ(loaded.train, cp.train);
  EXPECT_EQ(loaded.trainY, cp.trainY);
  EXPECT_EQ(loaded.pool, cp.pool);
  EXPECT_EQ(loaded.quarantined, cp.quarantined);
  EXPECT_EQ(loaded.partition.initial, cp.partition.initial);
  EXPECT_EQ(loaded.partition.active, cp.partition.active);
  EXPECT_EQ(loaded.partition.test, cp.partition.test);
  EXPECT_EQ(loaded.iteration, cp.iteration);
  EXPECT_EQ(loaded.cumulativeCost, cp.cumulativeCost);  // exact, not near
  EXPECT_EQ(loaded.gpTheta, cp.gpTheta);
  EXPECT_EQ(loaded.rngState, cp.rngState);
  EXPECT_TRUE(loaded.hasRngState);
  expectSameHistory(loaded.history, cp.history);
}

TEST(CheckpointIo, LoadRejectsMissingFiles) {
  EXPECT_THROW(al::loadCheckpoint("alperf_test_ckpt_does_not_exist"),
               std::exception);
}

TEST(CheckpointIo, LoadRejectsBadIndexCells) {
  // Index cells are cast to integers on load: NaN, negative and
  // fractional values must fail with the file, column and row named
  // instead of being cast (undefined behaviour) or truncated.
  const auto learner = makeLearner(6);
  Rng rng(5);
  const auto cp = learner.run(rng).checkpoint;
  const std::string prefix = "alperf_test_ckpt_badindex";
  struct Case {
    const char* file;
    const char* column;
    const char* value;
  };
  for (const Case& c : {Case{".trace.csv", "Iteration", "nan"},
                        Case{".trace.csv", "Iteration", "-1"},
                        Case{".trace.csv", "Iteration", "2.5"},
                        Case{".trace.csv", "ChosenRow", "nan"},
                        Case{".trace.csv", "ChosenRow", "-3"},
                        Case{".trace.csv", "ChosenRow", "1.5"},
                        Case{".sets.csv", "Row", "-1"},
                        Case{".sets.csv", "Row", "1.5"}}) {
    al::saveCheckpoint(cp, prefix);
    setCsvCell(prefix + c.file, c.column, 2, c.value);
    try {
      (void)al::loadCheckpoint(prefix);
      ADD_FAILURE() << c.file << " " << c.column << "=" << c.value
                    << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(prefix + c.file), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + c.column + "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("row 2"), std::string::npos) << what;
    }
  }
  // A NaN row index in the strict sets file is already refused by the CSV
  // reader's non-finite guard.
  al::saveCheckpoint(cp, prefix);
  setCsvCell(prefix + ".sets.csv", "Row", 2, "nan");
  EXPECT_THROW(al::loadCheckpoint(prefix), std::invalid_argument);
  // A signed meta word (row 3 is the Iteration key) must not wrap around.
  al::saveCheckpoint(cp, prefix);
  setCsvCell(prefix + ".meta.csv", "Value", 3, "-1");
  EXPECT_THROW(al::loadCheckpoint(prefix), std::invalid_argument);
  removeCheckpointFiles(prefix);
}

TEST(Resume, ValidatesCheckpointAgainstProblem) {
  const auto learner = makeLearner(5);
  Rng rng(5);
  al::Checkpoint empty;
  EXPECT_THROW(learner.resume(empty, rng), std::invalid_argument);
  const auto result = learner.run(rng);
  al::Checkpoint bad = result.checkpoint;
  bad.train.push_back(10'000);  // out of range for the 50-row problem
  bad.trainY.push_back(0.0);
  EXPECT_THROW(learner.resume(bad, rng), std::invalid_argument);
}

// ---------------------------------------- golden resume

TEST(GoldenResume, StraightAndResumedTracesAreIdentical) {
  const auto learner30 = makeLearner(30);
  const auto learner15 = makeLearner(15);
  Rng partRng(42);
  const auto partition = alperf::data::triPartition(
      learner30.problem().size(), 3, 0.8, partRng);

  Rng straightRng(7);
  const auto straight = learner30.runWithPartition(partition, straightRng);
  ASSERT_EQ(straight.history.size(), 30u);

  Rng halfRng(7);
  const auto half = learner15.runWithPartition(partition, halfRng);
  ASSERT_EQ(half.history.size(), 15u);

  const std::string prefix = "alperf_test_ckpt_golden";
  al::saveCheckpoint(half.checkpoint, prefix);
  const auto loaded = al::loadCheckpoint(prefix);
  removeCheckpointFiles(prefix);

  Rng resumeRng(987654321);  // irrelevant: the checkpoint state wins
  const auto resumed = learner30.resume(loaded, resumeRng);

  expectSameHistory(straight.history, resumed.history);
  EXPECT_EQ(straight.stopReason, resumed.stopReason);
  EXPECT_EQ(straight.checkpoint.train, resumed.checkpoint.train);
  EXPECT_EQ(straight.checkpoint.trainY, resumed.checkpoint.trainY);
  EXPECT_EQ(straight.checkpoint.pool, resumed.checkpoint.pool);
  EXPECT_EQ(straight.checkpoint.rngState, resumed.checkpoint.rngState);
  const auto thetaA = straight.finalGp.thetaFull();
  const auto thetaB = resumed.finalGp.thetaFull();
  ASSERT_EQ(thetaA.size(), thetaB.size());
  for (std::size_t i = 0; i < thetaA.size(); ++i)
    EXPECT_DOUBLE_EQ(thetaA[i], thetaB[i]);
  EXPECT_DOUBLE_EQ(straight.finalGp.logMarginalLikelihood(),
                   resumed.finalGp.logMarginalLikelihood());
}

TEST(GoldenResume, FallibleCampaignAlsoResumesBitForBit) {
  const auto problem = syntheticProblem();
  const auto learner20 = makeLearner(20);
  const auto learner10 = makeLearner(10);
  Rng partRng(42);
  const auto partition =
      alperf::data::triPartition(problem.size(), 3, 0.8, partRng);
  // Deterministic fallible backend: some rows always fail, some censor.
  const al::Oracle oracle = [&](std::size_t row) {
    if (row % 7 == 3) return Measurement::failed(0.5);
    if (row % 7 == 5)
      return Measurement::censored(0.9 * problem.y[row], problem.cost[row]);
    return Measurement::ok(problem.y[row], problem.cost[row]);
  };
  al::RetryPolicy policy;
  policy.maxRetries = 1;
  policy.backoffCostBase = 0.1;

  Rng straightRng(13);
  const auto straight = learner20.runFallibleWithPartition(
      oracle, policy, partition, straightRng);
  Rng halfRng(13);
  const auto half = learner10.runFallibleWithPartition(oracle, policy,
                                                       partition, halfRng);

  const std::string prefix = "alperf_test_ckpt_golden_fallible";
  al::saveCheckpoint(half.checkpoint, prefix);
  const auto loaded = al::loadCheckpoint(prefix);
  removeCheckpointFiles(prefix);

  Rng resumeRng(1);
  const auto resumed =
      learner20.resumeFallible(loaded, oracle, policy, resumeRng);
  expectSameHistory(straight.history, resumed.history);
  EXPECT_EQ(straight.checkpoint.quarantined,
            resumed.checkpoint.quarantined);
  EXPECT_EQ(straight.checkpoint.trainY, resumed.checkpoint.trainY);
}
