// Asynchronous dispatch engine + Oracle API v2 tests: type erasure and
// capability detection of al::Oracle, AsyncDispatcher's deterministic
// commit-in-dispatch-order contract at 1/2/8 slots, the maxInFlight=1
// guarantee (measured on the loop's thread, zero exec.async.* counters),
// pipelined campaign determinism, quarantine and chaos faults under
// concurrent dispatch, and checkpoint/resume of an async campaign.
// Runs under TSan in CI (suite names AsyncDispatch / OracleV2).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <set>
#include <thread>

#include "common/error.hpp"
#include "common/fault_inject.hpp"
#include "common/perf_stats.hpp"
#include "core/checkpoint.hpp"
#include "core/continuous.hpp"
#include "core/dispatch.hpp"
#include "core/learner.hpp"
#include "gp/kernels.hpp"

namespace al = alperf::al;
namespace gp = alperf::gp;
namespace la = alperf::la;
namespace opt = alperf::opt;
using alperf::FaultInjector;
using alperf::Measurement;
using alperf::MeasurementStatus;
using alperf::PerfRegistry;
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
  base.refitEvery = 2;
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
    EXPECT_DOUBLE_EQ(a[i].failedAttempts, b[i].failedAttempts)
        << "iter " << i;
    EXPECT_DOUBLE_EQ(a[i].wastedCost, b[i].wastedCost) << "iter " << i;
  }
}

void removeCheckpointFiles(const std::string& prefix) {
  for (const char* suffix : {".meta.csv", ".trace.csv", ".sets.csv"})
    std::remove((prefix + suffix).c_str());
}

/// Arms a fault spec for the test body and guarantees disarm on exit.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    FaultInjector::instance().arm(spec);
  }
  ~FaultGuard() { FaultInjector::instance().disarm(); }
};

}  // namespace

// --------------------------------------------------- Oracle API v2

TEST(OracleV2, WrapsInfalliblePointCallable) {
  const al::Oracle oracle = [](std::span<const double> x) {
    return 2.0 * x[0];
  };
  ASSERT_TRUE(oracle.hasPointMeasure());
  EXPECT_FALSE(oracle.hasRowMeasure());
  EXPECT_FALSE(oracle.hasAsync());
  const double x[] = {3.0};
  const Measurement m = oracle.measure(x);
  EXPECT_EQ(m.status, MeasurementStatus::Ok);
  EXPECT_DOUBLE_EQ(m.y, 6.0);

  const al::Oracle bad = [](std::span<const double>) {
    return std::numeric_limits<double>::quiet_NaN();
  };
  EXPECT_THROW(bad.measure(x), std::invalid_argument);
}

TEST(OracleV2, FallibleCallablesPassMeasurementsThrough) {
  const al::Oracle point = [](std::span<const double>) {
    return Measurement::failed(0.5);
  };
  const double x[] = {1.0};
  EXPECT_TRUE(point.measure(x).status == MeasurementStatus::Failed);

  const al::Oracle row = [](std::size_t r) {
    return Measurement::ok(static_cast<double>(r), 1.0);
  };
  ASSERT_TRUE(row.hasRowMeasure());
  EXPECT_FALSE(row.hasPointMeasure());
  EXPECT_DOUBLE_EQ(row.measureRow(7).y, 7.0);
  // measureAny prefers the row form when a row id is available...
  EXPECT_DOUBLE_EQ(row.measureAny(7, x).y, 7.0);
  // ...and the point form is used when there is none.
  EXPECT_DOUBLE_EQ(point.measureAny(al::Oracle::kNoRow, x).totalCost(), 0.5);
}

TEST(OracleV2, NullFunctionsAndNullptrProduceNoCapability) {
  const std::function<Measurement(std::span<const double>)> nullFn;
  const al::Oracle fromNullFn = nullFn;
  EXPECT_FALSE(static_cast<bool>(fromNullFn));
  const std::function<double(std::size_t)> nullRowFn;
  const al::Oracle fromNullRowFn = nullRowFn;
  EXPECT_FALSE(static_cast<bool>(fromNullRowFn));
  const al::Oracle fromNullptr = nullptr;
  EXPECT_FALSE(static_cast<bool>(fromNullptr));
  const al::Oracle empty;
  EXPECT_FALSE(static_cast<bool>(empty));
}

TEST(OracleV2, PlainStdFunctionsConvertImplicitly) {
  // Every callable shape a backend may be stored as converts to the one
  // Oracle type: point or row, fallible or infallible.
  const std::function<Measurement(std::span<const double>)> point =
      [](std::span<const double> x) { return Measurement::ok(x[0], 1.0); };
  const std::function<Measurement(std::size_t)> row = [](std::size_t r) {
    return Measurement::ok(static_cast<double>(r), 1.0);
  };
  const std::function<double(std::span<const double>)> infalliblePoint =
      [](std::span<const double> x) { return 3.0 * x[0]; };
  const std::function<double(std::size_t)> infallibleRow =
      [](std::size_t r) { return static_cast<double>(r) + 0.5; };

  const al::Oracle fromPoint = point;
  const al::Oracle fromRow = row;
  const al::Oracle fromInfalliblePoint = infalliblePoint;
  const al::Oracle fromInfallibleRow = infallibleRow;
  EXPECT_TRUE(fromPoint.hasPointMeasure());
  EXPECT_FALSE(fromPoint.hasRowMeasure());
  EXPECT_TRUE(fromRow.hasRowMeasure());
  EXPECT_FALSE(fromRow.hasPointMeasure());
  EXPECT_TRUE(fromInfalliblePoint.hasPointMeasure());
  EXPECT_TRUE(fromInfallibleRow.hasRowMeasure());

  const double x[] = {2.0};
  EXPECT_DOUBLE_EQ(fromPoint.measure(x).y, 2.0);
  EXPECT_DOUBLE_EQ(fromRow.measureRow(4).y, 4.0);
  EXPECT_DOUBLE_EQ(fromInfalliblePoint.measure(x).y, 6.0);
  EXPECT_EQ(fromInfallibleRow.measureRow(4).status, MeasurementStatus::Ok);
  EXPECT_DOUBLE_EQ(fromInfallibleRow.measureRow(4).y, 4.5);
}

TEST(OracleV2, AsyncCapabilityRoundTrips) {
  std::atomic<int> submitted{0};
  const al::Oracle oracle =
      al::Oracle([](std::span<const double> x) { return x[0]; })
          .withAsync(
              [&submitted](std::size_t, std::span<const double>) {
                return static_cast<std::uint64_t>(submitted++);
              },
              [](std::uint64_t ticket) {
                return Measurement::ok(static_cast<double>(ticket), 1.0);
              });
  ASSERT_TRUE(oracle.hasAsync());
  const double x[] = {1.5};
  const auto ticket = oracle.submit(al::Oracle::kNoRow, x);
  EXPECT_DOUBLE_EQ(oracle.await(ticket).y, 0.0);
  EXPECT_EQ(submitted.load(), 1);
}

// ---------------------------------------------- dispatcher contract

TEST(AsyncDispatch, ConfigValidation) {
  al::ExecutionConfig bad;
  bad.maxInFlight = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.maxInFlight = 2000;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.maxInFlight = 8;
  EXPECT_NO_THROW(bad.validate());

  al::AlConfig cfg;
  cfg.execution.maxInFlight = 2;
  cfg.batchSize = 2;  // async dispatch subsumes batch selection
  const auto learner = makeLearner(5, cfg);
  Rng rng(3);
  EXPECT_THROW(learner.run(rng), std::invalid_argument);
}

TEST(AsyncDispatch, CommitsInDispatchOrderAtEveryWidth) {
  for (const int width : {1, 2, 8}) {
    // Later submissions finish *first* (sleep shrinks with the row), so
    // out-of-order completion is the common case at width > 1.
    const al::Oracle oracle = [](std::size_t row) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          row < 16 ? (16 - row) / 4 : 0));
      return Measurement::ok(static_cast<double>(row) * 10.0, 1.0);
    };
    al::ExecutionConfig exec;
    exec.maxInFlight = width;
    al::AsyncDispatcher dispatcher(oracle, exec);
    EXPECT_EQ(dispatcher.capacity(), width);

    std::vector<std::uint64_t> tickets;
    std::size_t next = 0;
    const std::size_t total = 16;
    std::vector<al::AsyncDispatcher::Committed> committed;
    while (committed.size() < total) {
      while (next < total && !dispatcher.full()) {
        const double x[] = {static_cast<double>(next)};
        tickets.push_back(dispatcher.submit(next, x));
        ++next;
      }
      committed.push_back(dispatcher.commitNext());
    }
    EXPECT_TRUE(dispatcher.idle());
    for (std::size_t i = 0; i < total; ++i) {
      EXPECT_EQ(committed[i].ticket, tickets[i]) << "width " << width;
      EXPECT_EQ(committed[i].row, i) << "width " << width;
      ASSERT_EQ(committed[i].x.size(), 1u);
      EXPECT_DOUBLE_EQ(committed[i].x[0], static_cast<double>(i));
      EXPECT_DOUBLE_EQ(committed[i].result.measurement.y,
                       static_cast<double>(i) * 10.0)
          << "width " << width;
    }
  }
}

TEST(AsyncDispatch, LedgerMatchesExecutorSemantics) {
  // Rows ≡ 0 (mod 3) fail every attempt; everything else succeeds.
  const al::Oracle oracle = [](std::size_t row) {
    if (row % 3 == 0) return Measurement::failed(0.5);
    return Measurement::ok(1.0, 1.0);
  };
  al::ExecutionConfig exec;
  exec.maxInFlight = 4;
  exec.retry.maxRetries = 1;
  exec.retry.backoffCostBase = 0.25;
  al::AsyncDispatcher dispatcher(oracle, exec);
  const double x[] = {0.0};
  int quarantined = 0;
  const auto commitOne = [&] {
    const auto c = dispatcher.commitNext();
    if (c.result.quarantined) {
      ++quarantined;
      EXPECT_EQ(c.row % 3, 0u);
      EXPECT_EQ(c.result.attempts, 2);
    }
  };
  for (std::size_t row = 0; row < 9; ++row) {
    if (dispatcher.full()) commitOne();
    dispatcher.submit(row, x);
  }
  while (!dispatcher.idle()) commitOne();
  EXPECT_EQ(quarantined, 3);
  EXPECT_EQ(dispatcher.totalQuarantined(), 3);
  // 3 quarantined rows × 2 failed attempts each.
  EXPECT_EQ(dispatcher.totalFailedAttempts(), 6);
  // Each quarantined row burns 2 × 0.5 measurement cost + one 0.25
  // backoff surcharge.
  EXPECT_DOUBLE_EQ(dispatcher.totalWastedCost(), 3 * (2 * 0.5 + 0.25));
}

TEST(AsyncDispatch, OverSubmitThrows) {
  const al::Oracle oracle = [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Measurement::ok(1.0, 1.0);
  };
  al::ExecutionConfig exec;
  exec.maxInFlight = 1;
  al::AsyncDispatcher dispatcher(oracle, exec);
  const double x[] = {0.0};
  dispatcher.submit(0, x);
  EXPECT_TRUE(dispatcher.full());
  EXPECT_THROW(dispatcher.submit(1, x), std::logic_error);
  (void)dispatcher.commitNext();
}

TEST(AsyncDispatch, DestructorJoinsWithUncommittedWork) {
  const al::Oracle oracle = [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return Measurement::ok(1.0, 1.0);
  };
  al::ExecutionConfig exec;
  exec.maxInFlight = 4;
  al::AsyncDispatcher dispatcher(oracle, exec);
  const double x[] = {0.0};
  for (std::size_t row = 0; row < 4; ++row) dispatcher.submit(row, x);
  // Destructor runs with all four in flight: running measurements finish,
  // results are discarded, no hang and no leak (ASan/TSan checked).
}

// --------------------------------------- maxInFlight = 1 bit-identity

TEST(AsyncDispatch, SingleSlotIsTheSynchronousPathBitwise) {
  const auto problem = syntheticProblem();
  Rng partRng(42);
  const auto partition =
      alperf::data::triPartition(problem.size(), 3, 0.8, partRng);
  const al::Oracle oracle = [&](std::size_t row) {
    if (row % 7 == 3) return Measurement::failed(0.5);
    return Measurement::ok(problem.y[row], problem.cost[row]);
  };
  al::RetryPolicy policy;
  policy.maxRetries = 1;

  const auto baselineLearner = makeLearner(15);
  Rng rngA(13);
  const auto baseline = baselineLearner.runFallibleWithPartition(
      oracle, policy, partition, rngA);

  al::AlConfig cfg;
  cfg.execution.maxInFlight = 1;  // explicit default: must change nothing
  const auto explicitLearner = makeLearner(15, cfg);
  PerfRegistry::instance().reset();
  Rng rngB(13);
  const auto explicitOne = explicitLearner.runFallibleWithPartition(
      oracle, policy, partition, rngB);

  expectSameHistory(baseline.history, explicitOne.history);
  EXPECT_EQ(baseline.checkpoint.trainY, explicitOne.checkpoint.trainY);
  EXPECT_EQ(baseline.finalGp.thetaFull(), explicitOne.finalGp.thetaFull());
  // At maxInFlight=1 the dispatcher measures on the calling thread and
  // starts no slot: the async engine must leave no trace in the counters.
  EXPECT_EQ(PerfRegistry::instance().count("exec.async.submitted"), 0u);
  EXPECT_EQ(PerfRegistry::instance().count("exec.async.committed"), 0u);
}

TEST(AsyncDispatch, WidthOneMeasuresInlineWithoutFantasy) {
  // Width 1 is the one loop with nothing ever pending: every measurement
  // runs on the calling thread (no slot thread), and no fantasy GP is
  // built or extended. With every Cholesky extension failing, any
  // fantasy extension would leave a fantasy.extend health incident.
  const auto problem = syntheticProblem();
  Rng partRng(42);
  const auto partition =
      alperf::data::triPartition(problem.size(), 3, 0.8, partRng);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> offThread{0};
  const al::Oracle oracle = [&](std::size_t row) {
    if (std::this_thread::get_id() != caller) ++offThread;
    return Measurement::ok(problem.y[row], problem.cost[row]);
  };
  FaultGuard guard("extend.fail");
  const auto incidents = [] {
    return PerfRegistry::instance().count("health.fantasy.extend");
  };

  const auto before = incidents();
  Rng rngA(7);
  const auto width1 = makeLearner(12).runFallibleWithPartition(
      oracle, al::RetryPolicy{}, partition, rngA);
  EXPECT_EQ(width1.history.size(), 12u);
  EXPECT_EQ(offThread.load(), 0);
  EXPECT_EQ(incidents(), before);

  // The same campaign at width 4 does condition fantasies on its pending
  // picks — and measures on slot threads.
  al::AlConfig cfg;
  cfg.execution.maxInFlight = 4;
  Rng rngB(7);
  (void)makeLearner(12, cfg).runFallibleWithPartition(
      oracle, al::RetryPolicy{}, partition, rngB);
  EXPECT_GT(offThread.load(), 0);
  EXPECT_GT(incidents(), before);
}

// ------------------------------------------- pipelined campaigns

TEST(AsyncDispatch, PipelinedCampaignIsDeterministic) {
  const auto problem = syntheticProblem();
  Rng partRng(42);
  const auto partition =
      alperf::data::triPartition(problem.size(), 3, 0.8, partRng);
  const al::Oracle oracle = [&](std::size_t row) {
    return Measurement::ok(problem.y[row], problem.cost[row]);
  };
  al::AlConfig cfg;
  cfg.execution.maxInFlight = 4;
  const auto learner = makeLearner(20, cfg);
  al::RetryPolicy policy;

  Rng rngA(7);
  const auto runA =
      learner.runFallibleWithPartition(oracle, policy, partition, rngA);
  Rng rngB(7);
  const auto runB =
      learner.runFallibleWithPartition(oracle, policy, partition, rngB);

  EXPECT_EQ(runA.history.size(), 20u);
  expectSameHistory(runA.history, runB.history);
  EXPECT_EQ(runA.checkpoint.train, runB.checkpoint.train);
  EXPECT_EQ(runA.finalGp.thetaFull(), runB.finalGp.thetaFull());

  // Records are in dispatch order with consistent bookkeeping.
  std::set<std::size_t> seen;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < runA.history.size(); ++i) {
    const auto& rec = runA.history[i];
    EXPECT_EQ(rec.iteration, static_cast<double>(i));
    EXPECT_TRUE(seen.insert(rec.chosenRow).second)
        << "row " << rec.chosenRow << " picked twice";
    cumulative += rec.pickCost + rec.wastedCost;
    EXPECT_DOUBLE_EQ(rec.cumulativeCost, cumulative);
  }
}

TEST(AsyncDispatch, QuarantineUnderConcurrentDispatch) {
  const auto problem = syntheticProblem();
  Rng partRng(42);
  const auto partition =
      alperf::data::triPartition(problem.size(), 3, 0.8, partRng);
  const al::Oracle oracle = [&](std::size_t row) {
    if (row % 5 == 2) return Measurement::failed(0.5);
    return Measurement::ok(problem.y[row], problem.cost[row]);
  };
  al::RetryPolicy policy;
  policy.maxRetries = 1;
  policy.backoffCostBase = 0.25;
  al::AlConfig cfg;
  cfg.execution.maxInFlight = 4;
  const auto learner = makeLearner(20, cfg);

  Rng rngA(7);
  const auto runA =
      learner.runFallibleWithPartition(oracle, policy, partition, rngA);
  Rng rngB(7);
  const auto runB =
      learner.runFallibleWithPartition(oracle, policy, partition, rngB);

  EXPECT_EQ(runA.checkpoint.quarantined, runB.checkpoint.quarantined);
  expectSameHistory(runA.history, runB.history);
  for (const std::size_t row : runA.checkpoint.quarantined)
    EXPECT_EQ(row % 5, 2u);
  // Quarantined rows trained nothing...
  for (const std::size_t row : runA.checkpoint.quarantined)
    EXPECT_EQ(std::count(runA.checkpoint.train.begin(),
                         runA.checkpoint.train.end(), row),
              0);
  // ...but their attempts and waste are in the records.
  bool sawQuarantine = false;
  for (const auto& rec : runA.history) {
    if (rec.chosenRow % 5 == 2) {
      sawQuarantine = true;
      EXPECT_DOUBLE_EQ(rec.failedAttempts, 2.0);
      EXPECT_GT(rec.wastedCost, 0.0);
    }
  }
  EXPECT_TRUE(sawQuarantine);
}

TEST(AsyncDispatch, ChaosFaultsUnderConcurrentDispatch) {
  const auto problem = syntheticProblem();
  Rng partRng(42);
  const auto partition =
      alperf::data::triPartition(problem.size(), 3, 0.8, partRng);
  const al::Oracle oracle = [&](std::size_t row) {
    return Measurement::ok(problem.y[row], problem.cost[row]);
  };
  al::AlConfig cfg;
  cfg.execution.maxInFlight = 4;
  const auto learner = makeLearner(12, cfg);
  al::RetryPolicy policy;

  // Every incremental Cholesky extension fails: each fit walks the
  // degradation ladder while up to 4 measurements run concurrently.
  FaultGuard guard("extend.fail");
  Rng rng(7);
  const auto result =
      learner.runFallibleWithPartition(oracle, policy, partition, rng);
  EXPECT_EQ(result.stopReason, al::StopReason::MaxIterations);
  EXPECT_EQ(result.history.size(), 12u);
  EXPECT_TRUE(result.finalGp.fitted());
}

// ----------------------------------------------- checkpoint / resume

TEST(AsyncDispatch, CheckpointResumeContinuesDeterministically) {
  const auto problem = syntheticProblem();
  Rng partRng(42);
  const auto partition =
      alperf::data::triPartition(problem.size(), 3, 0.8, partRng);
  const al::Oracle oracle = [&](std::size_t row) {
    if (row % 7 == 3) return Measurement::failed(0.5);
    return Measurement::ok(problem.y[row], problem.cost[row]);
  };
  al::RetryPolicy policy;
  policy.maxRetries = 1;
  al::AlConfig cfg;
  cfg.execution.maxInFlight = 4;
  const auto learner20 = makeLearner(20, cfg);
  const auto learner10 = makeLearner(10, cfg);

  // Half campaign; the stop drains the pipeline, so the checkpoint
  // carries no in-flight state and round-trips through the v1 format.
  Rng halfRng(13);
  const auto half = learner10.runFallibleWithPartition(oracle, policy,
                                                       partition, halfRng);
  ASSERT_EQ(half.history.size(), 10u);

  const std::string prefix = "alperf_test_ckpt_async";
  al::saveCheckpoint(half.checkpoint, prefix);
  const auto loaded = al::loadCheckpoint(prefix);
  removeCheckpointFiles(prefix);

  Rng resumeA(1);
  const auto resumedA =
      learner20.resumeFallible(loaded, oracle, policy, resumeA);
  Rng resumeB(1);
  const auto resumedB =
      learner20.resumeFallible(loaded, oracle, policy, resumeB);

  // The committed prefix is preserved bit-for-bit and the continuation
  // is deterministic (the refilled pipeline may legitimately pick other
  // rows than an uninterrupted run, so only the prefix is golden).
  EXPECT_EQ(resumedA.history.size(), 20u);
  expectSameHistory(resumedA.history, resumedB.history);
  expectSameHistory(
      half.history,
      {resumedA.history.begin(), resumedA.history.begin() + 10});
  std::set<std::size_t> seen;
  for (const auto& rec : resumedA.history)
    EXPECT_TRUE(seen.insert(rec.chosenRow).second);
}

// ------------------------------------------------- continuous loop

TEST(AsyncDispatch, ContinuousLoopPipelinesDeterministically) {
  gp::GpConfig gcfg;
  gcfg.nRestarts = 1;
  gcfg.noise.lo = 1e-3;
  gp::GaussianProcess proto(gp::makeSquaredExponential(1.0, 1.0), gcfg);
  la::Matrix seedX(3, 1);
  la::Vector seedY(3);
  for (std::size_t i = 0; i < 3; ++i) {
    seedX(i, 0) = static_cast<double>(i) * 3.0;
    seedY[i] = std::sin(seedX(i, 0));
  }
  const al::Oracle oracle = [](std::span<const double> x) {
    return Measurement::ok(std::sin(x[0]), 1.0);
  };
  al::ContinuousAlConfig cfg;
  cfg.iterations = 8;
  cfg.nStarts = 3;
  cfg.refitEvery = 3;
  cfg.execution.maxInFlight = 3;
  al::RetryPolicy policy;

  Rng rngA(4);
  const auto runA = al::runContinuousAl(
      proto, seedX, seedY, opt::BoxBounds({0.0}, {8.0}), oracle, policy,
      al::varianceAcquisition(), cfg, rngA);
  Rng rngB(4);
  const auto runB = al::runContinuousAl(
      proto, seedX, seedY, opt::BoxBounds({0.0}, {8.0}), oracle, policy,
      al::varianceAcquisition(), cfg, rngB);

  EXPECT_EQ(runA.stopReason, al::StopReason::MaxIterations);
  ASSERT_EQ(runA.history.size(), 8u);
  ASSERT_EQ(runB.history.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_EQ(runA.history[i].x.size(), 1u);
    EXPECT_DOUBLE_EQ(runA.history[i].x[0], runB.history[i].x[0])
        << "iter " << i;
    EXPECT_DOUBLE_EQ(runA.history[i].y, runB.history[i].y) << "iter " << i;
    EXPECT_TRUE(runA.history[i].measured);
    EXPECT_DOUBLE_EQ(runA.history[i].y, std::sin(runA.history[i].x[0]));
  }
  EXPECT_EQ(runA.finalGp.numTrainPoints(), 3u + 8u);
}
