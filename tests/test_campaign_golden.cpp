// Golden campaign digests: each case runs a complete AL campaign and folds
// every bit of its observable outcome into one FNV-1a digest — every
// IterationRecord / ContinuousAlRecord field, the checkpoint's train,
// trainY, pool and quarantined sets, the stop reason and the final GP's
// hyperparameters. The expected digests are frozen, so any change to the
// campaign loop that moves a single bit of a trace fails here, at pool
// threads 1 and 4 alike (the determinism contract makes the thread count
// invisible).
//
// The cases cover every path through the loop: table-driven and fallible
// measurement, refit cadences 1/2/3 (full refit, posterior extension and
// the pool-cache append path), batch selection, retries with backoff,
// quarantine (and the refit that follows it), censoring, dispatch widths
// 1, 2 and 4, checkpoint resume, injected faults, every stop reason the
// loop can reach deterministically (all but the wall-clock watchdog), the
// dynamic noise bound, and the continuous loop at widths 1 and 3. Runs
// under TSan in CI: the width > 1 cases start slot threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fault_inject.hpp"
#include "common/thread_pool.hpp"
#include "core/checkpoint.hpp"
#include "core/continuous.hpp"
#include "core/learner.hpp"
#include "gp/kernels.hpp"

namespace al = alperf::al;
namespace gp = alperf::gp;
namespace la = alperf::la;
namespace opt = alperf::opt;
using alperf::FaultInjector;
using alperf::Measurement;
using alperf::Parallelism;
using alperf::stats::Rng;

namespace {

/// 64-bit FNV-1a over the bit patterns of everything added.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(int v) {
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void add(bool v) { add(static_cast<std::uint64_t>(v ? 1 : 0)); }
  template <class T>
  void add(const std::vector<T>& v) {
    add(v.size());
    for (const auto& e : v) add(e);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t digestOf(const al::AlResult& r) {
  Digest d;
  d.add(r.history.size());
  for (const auto& rec : r.history) {
    d.add(rec.iteration);
    d.add(rec.chosenRow);
    d.add(rec.sigmaAtPick);
    d.add(rec.muAtPick);
    d.add(rec.amsd);
    d.add(rec.rmse);
    d.add(rec.pickCost);
    d.add(rec.cumulativeCost);
    d.add(rec.noiseVariance);
    d.add(rec.lml);
    d.add(rec.failedAttempts);
    d.add(rec.wastedCost);
    d.add(rec.censored);
  }
  d.add(r.checkpoint.train);
  d.add(r.checkpoint.trainY);
  d.add(r.checkpoint.pool);
  d.add(r.checkpoint.quarantined);
  d.add(static_cast<int>(r.stopReason));
  d.add(r.finalGp.thetaFull());
  d.add(r.fitFallbacks);
  return d.value();
}

std::uint64_t digestOf(const al::ContinuousAlResult& r) {
  Digest d;
  d.add(r.history.size());
  for (const auto& rec : r.history) {
    d.add(rec.x);
    d.add(rec.y);
    d.add(rec.sdAtPick);
    d.add(rec.acquisition);
    d.add(rec.failedAttempts);
    d.add(rec.wastedCost);
    d.add(rec.censored);
    d.add(rec.measured);
  }
  d.add(static_cast<int>(r.stopReason));
  d.add(r.finalGp.thetaFull());
  d.add(r.fitFallbacks);
  d.add(r.wastedCost);
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Runs `campaign` at pool threads 1 and 4; both must hit `expected`.
void expectGolden(std::uint64_t expected,
                  const std::function<std::uint64_t()>& campaign) {
  for (const int threads : {1, 4}) {
    Parallelism::setThreads(threads);
    EXPECT_EQ(hex(campaign()), hex(expected)) << "pool threads " << threads;
  }
  Parallelism::setThreads(0);
}

/// Arms a fault spec for the test body and guarantees disarm on exit.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    FaultInjector::instance().arm(spec);
  }
  ~FaultGuard() { FaultInjector::instance().disarm(); }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
};

/// 8×8 grid over [0, 1]² with a smooth response and a cost gradient.
al::RegressionProblem gridProblem() {
  constexpr std::size_t kSide = 8;
  al::RegressionProblem p;
  p.x = la::Matrix(kSide * kSide, 2);
  p.y.resize(kSide * kSide);
  p.cost.resize(kSide * kSide);
  for (std::size_t i = 0; i < kSide; ++i) {
    for (std::size_t j = 0; j < kSide; ++j) {
      const std::size_t r = i * kSide + j;
      const double a = static_cast<double>(i) / (kSide - 1);
      const double b = static_cast<double>(j) / (kSide - 1);
      p.x(r, 0) = a;
      p.x(r, 1) = b;
      p.y[r] = std::sin(3.0 * a) + 0.5 * std::cos(4.0 * b) + 0.2 * a * b;
      p.cost[r] = 1.0 + a + 0.5 * b;
    }
  }
  p.featureNames = {"a", "b"};
  p.responseName = "y";
  return p;
}

gp::GaussianProcess prototype() {
  gp::GpConfig cfg;
  cfg.nRestarts = 1;
  cfg.noise.lo = 1e-3;
  return gp::GaussianProcess(gp::makeSquaredExponentialArd(1.0, {1.0, 1.0}),
                             cfg);
}

al::AlConfig baseConfig(int maxIterations, int refitEvery, int width = 1) {
  al::AlConfig cfg;
  cfg.nInitial = 3;
  cfg.maxIterations = maxIterations;
  cfg.refitEvery = refitEvery;
  cfg.execution.maxInFlight = width;
  return cfg;
}

al::ActiveLearner learner(const al::AlConfig& cfg,
                          al::StrategyPtr strategy =
                              std::make_unique<al::VarianceReduction>()) {
  return al::ActiveLearner(gridProblem(), prototype(), std::move(strategy),
                           cfg);
}

/// Table-driven campaign on a random partition drawn from `seed`.
al::AlResult tableRun(const al::AlConfig& cfg, std::uint64_t seed,
                      al::StrategyPtr strategy =
                          std::make_unique<al::VarianceReduction>()) {
  Rng rng(seed);
  return learner(cfg, std::move(strategy)).run(rng);
}

/// A fallible backend over the grid's rows, stateless apart from a
/// per-row attempt count (each row is measured by one slot at a time, so
/// the count is race-free at any width):
///   row % 4 == 3   always fails            -> quarantined
///   row % 3 == 1   fails its first attempt -> one retry with backoff
///   row % 3 == 2   censored at 0.9·y
///   otherwise      the database value
al::Oracle flakyOracle(const al::RegressionProblem& problem) {
  auto attempts =
      std::make_shared<std::vector<std::atomic<int>>>(problem.size());
  return al::Oracle([&problem, attempts](std::size_t row) {
    const int attempt = (*attempts)[row]++;
    if (row % 4 == 3) return Measurement::failed(0.5);
    if (row % 3 == 1 && attempt == 0) return Measurement::failed(0.25);
    if (row % 3 == 2)
      return Measurement::censored(0.9 * problem.y[row], problem.cost[row]);
    return Measurement::ok(problem.y[row], problem.cost[row]);
  });
}

al::RetryPolicy backoffPolicy() {
  al::RetryPolicy policy;
  policy.maxRetries = 2;
  policy.backoffCostBase = 0.5;
  policy.backoffGrowth = 2.0;
  return policy;
}

al::AlResult fallibleRun(const al::AlConfig& cfg, std::uint64_t seed) {
  const auto l = learner(cfg);
  Rng rng(seed);
  return l.runFallible(flakyOracle(l.problem()), backoffPolicy(), rng);
}

/// The fallible cases must actually exercise what they claim: a
/// quarantine with a selection after it (the post-quarantine refit), a
/// retried-then-measured row, and a censored one.
void expectFaultCoverage(const al::AlResult& r) {
  ASSERT_FALSE(r.checkpoint.quarantined.empty());
  const auto firstQuarantine =
      std::find_if(r.history.begin(), r.history.end(), [](const auto& rec) {
        return rec.chosenRow % 4 == 3;
      });
  EXPECT_LT(firstQuarantine - r.history.begin() + 1,
            static_cast<std::ptrdiff_t>(r.history.size()));
  EXPECT_TRUE(std::any_of(r.history.begin(), r.history.end(),
                          [](const auto& rec) {
                            return rec.chosenRow % 3 == 1 &&
                                   rec.chosenRow % 4 != 3;
                          }));
  EXPECT_TRUE(std::any_of(r.history.begin(), r.history.end(),
                          [](const auto& rec) { return rec.censored > 0.0; }));
}

// ---------------------------------------------------- continuous loop

struct ContinuousSetup {
  gp::GaussianProcess proto;
  la::Matrix seedX{3, 1};
  la::Vector seedY = la::Vector(3);

  ContinuousSetup() : proto(gp::makeSquaredExponential(1.0, 1.0), gpCfg()) {
    for (std::size_t i = 0; i < 3; ++i) {
      seedX(i, 0) = 1.0 + 3.0 * static_cast<double>(i);
      seedY[i] = std::sin(seedX(i, 0));
    }
  }
  static gp::GpConfig gpCfg() {
    gp::GpConfig cfg;
    cfg.nRestarts = 1;
    cfg.noise.lo = 1e-3;
    return cfg;
  }
};

al::ContinuousAlConfig continuousConfig(int width) {
  al::ContinuousAlConfig cfg;
  cfg.iterations = 10;
  cfg.nStarts = 3;
  cfg.refitEvery = 3;
  cfg.maxConsecutiveFailures = 4;
  cfg.execution.maxInFlight = width;
  return cfg;
}

/// Deterministic faults keyed on the suggestion itself: where
/// sin(37·x) > 0.5 the first two attempts in x's 0.01-wide bin fail (one
/// suggestion's retries, so it is quarantined; the learner re-suggests
/// the same spot, which then measures), and where it is below -0.5 the
/// response is censored.
al::Oracle continuousOracle() {
  struct Attempts {
    std::mutex mu;
    std::map<long, int> count;
  };
  auto attempts = std::make_shared<Attempts>();
  return al::Oracle([attempts](std::span<const double> x) {
    int attempt = 0;
    {
      const std::lock_guard<std::mutex> lock(attempts->mu);
      attempt = attempts->count[std::lround(100.0 * x[0])]++;
    }
    const double h = std::sin(37.0 * x[0]);
    if (h > 0.5 && attempt < 2) return Measurement::failed(0.5);
    if (h < -0.5) return Measurement::censored(0.8 * std::sin(x[0]), 1.0);
    return Measurement::ok(std::sin(x[0]) + 0.1 * x[0], 1.0);
  });
}

/// Always down: every suggestion is quarantined.
al::Oracle downOracle() {
  return al::Oracle(
      [](std::span<const double>) { return Measurement::failed(0.5); });
}

al::ContinuousAlResult continuousRun(int width, const al::Oracle& oracle) {
  const ContinuousSetup s;
  al::RetryPolicy policy;
  policy.maxRetries = 1;
  policy.backoffCostBase = 0.25;
  Rng rng(21);
  return al::runContinuousAl(s.proto, s.seedX, s.seedY,
                             opt::BoxBounds({0.0}, {8.0}), oracle, policy,
                             al::varianceAcquisition(),
                             continuousConfig(width), rng);
}

/// The flaky continuous cases run to the iteration limit through at least
/// one quarantined and one censored suggestion.
void expectContinuousCoverage(const al::ContinuousAlResult& r) {
  EXPECT_EQ(r.stopReason, al::StopReason::MaxIterations);
  EXPECT_TRUE(std::any_of(r.history.begin(), r.history.end(),
                          [](const auto& rec) { return !rec.measured; }));
  EXPECT_TRUE(std::any_of(r.history.begin(), r.history.end(),
                          [](const auto& rec) { return rec.censored > 0.0; }));
}

}  // namespace

// ------------------------------------------------------ table-driven

TEST(CampaignGolden, TableDrivenVarianceReductionRefitEvery1) {
  expectGolden(0xdfc4266ebd7f354f, [] {
    return digestOf(tableRun(baseConfig(15, 1), 11));
  });
}

TEST(CampaignGolden, TableDrivenCostEfficiencyRefitEvery3) {
  expectGolden(0xf377b456f0b7f0f4, [] {
    return digestOf(tableRun(baseConfig(18, 3), 12,
                             std::make_unique<al::CostEfficiency>()));
  });
}

TEST(CampaignGolden, TableDrivenWidth4) {
  expectGolden(0xc08495a6a6ee3b0b, [] {
    return digestOf(tableRun(baseConfig(16, 2, 4), 13));
  });
}

// ------------------------------------------------------------ batches

TEST(CampaignGolden, BatchOf3FantasyBatch) {
  expectGolden(0x63bad0fc58b31b1c, [] {
    auto cfg = baseConfig(5, 1);
    cfg.batchSize = 3;
    const auto r = tableRun(cfg, 14, std::make_unique<al::FantasyBatch>());
    EXPECT_EQ(r.checkpoint.train.size(), 3u + 5u * 3u);
    return digestOf(r);
  });
}

TEST(CampaignGolden, BatchOf3VarianceReduction) {
  expectGolden(0xe4d7aeeddd54fd1a, [] {
    auto cfg = baseConfig(5, 2);
    cfg.batchSize = 3;
    const auto r = tableRun(cfg, 15);
    EXPECT_EQ(r.checkpoint.train.size(), 3u + 5u * 3u);
    return digestOf(r);
  });
}

TEST(CampaignGolden, BatchOf3Fallible) {
  expectGolden(0x36ab5fba68d64331, [] {
    auto cfg = baseConfig(6, 2);
    cfg.batchSize = 3;
    const auto r = fallibleRun(cfg, 16);
    EXPECT_EQ(r.history.size(), 6u);
    EXPECT_EQ(r.checkpoint.train.size() + r.checkpoint.quarantined.size(),
              3u + 6u * 3u);
    return digestOf(r);
  });
}

// -------------------------------- fallible: retries, backoff, quarantine

TEST(CampaignGolden, FallibleWidth1RefitEvery1) {
  expectGolden(0x6fecd768326fa6b7, [] {
    const auto r = fallibleRun(baseConfig(16, 1, 1), 17);
    expectFaultCoverage(r);
    return digestOf(r);
  });
}

TEST(CampaignGolden, FallibleWidth1RefitEvery2) {
  expectGolden(0x9f3f90f87b27b300, [] {
    const auto r = fallibleRun(baseConfig(16, 2, 1), 17);
    expectFaultCoverage(r);
    return digestOf(r);
  });
}

TEST(CampaignGolden, FallibleWidth2RefitEvery1) {
  expectGolden(0x1cec1b42466a62e0, [] {
    const auto r = fallibleRun(baseConfig(16, 1, 2), 17);
    expectFaultCoverage(r);
    return digestOf(r);
  });
}

TEST(CampaignGolden, FallibleWidth2RefitEvery2) {
  expectGolden(0xaf061fbef4c6118a, [] {
    const auto r = fallibleRun(baseConfig(16, 2, 2), 17);
    expectFaultCoverage(r);
    return digestOf(r);
  });
}

TEST(CampaignGolden, FallibleWidth4RefitEvery1) {
  expectGolden(0x3a436dba935aefac, [] {
    const auto r = fallibleRun(baseConfig(16, 1, 4), 17);
    expectFaultCoverage(r);
    return digestOf(r);
  });
}

TEST(CampaignGolden, FallibleWidth4RefitEvery2) {
  expectGolden(0xc310f97a78299dd6, [] {
    const auto r = fallibleRun(baseConfig(16, 2, 4), 17);
    expectFaultCoverage(r);
    return digestOf(r);
  });
}

TEST(CampaignGolden, TableDrivenToPoolExhaustion) {
  expectGolden(0xc9680ed1f7437346, [] {
    const auto r = tableRun(baseConfig(-1, 4), 27);
    EXPECT_EQ(r.stopReason, al::StopReason::PoolExhausted);
    return digestOf(r);
  });
}

TEST(CampaignGolden, FallibleToPoolExhaustion) {
  expectGolden(0x753e0bde4746db3e, [] {
    const auto r = fallibleRun(baseConfig(-1, 3, 1), 18);
    EXPECT_EQ(r.stopReason, al::StopReason::OracleExhausted);
    return digestOf(r);
  });
}

// ---------------------------------------------------------- resume

TEST(CampaignGolden, Width1CheckpointResume) {
  expectGolden(0xf0f028ee397a4ba9, [] {
    const auto half = learner(baseConfig(8, 2));
    const auto full = learner(baseConfig(16, 2));
    Rng rng(19);
    const auto first =
        half.runFallible(flakyOracle(half.problem()), backoffPolicy(), rng);
    const std::string prefix = "alperf_test_campaign_golden_ckpt";
    al::saveCheckpoint(first.checkpoint, prefix);
    const auto loaded = al::loadCheckpoint(prefix);
    for (const char* suffix : {".meta.csv", ".trace.csv", ".sets.csv"})
      std::remove((prefix + suffix).c_str());
    Rng resumeRng(1);
    const auto r = full.resumeFallible(loaded, flakyOracle(full.problem()),
                                       backoffPolicy(), resumeRng);
    EXPECT_EQ(r.history.size(), 16u);
    return digestOf(r);
  });
}

// ---------------------------------------------------- injected faults

TEST(CampaignGolden, GramNanAtIteration5Width1) {
  FaultGuard guard("gram.nan@iter=5");
  expectGolden(0x0c04e68acde59850, [] {
    const auto r = tableRun(baseConfig(10, 1, 1), 20);
    EXPECT_GE(r.fitFallbacks, 1);
    return digestOf(r);
  });
}

TEST(CampaignGolden, GramNanAtIteration5Width4) {
  FaultGuard guard("gram.nan@iter=5");
  expectGolden(0xacfaddcfadedf9b5, [] {
    const auto r = tableRun(baseConfig(10, 1, 4), 20);
    EXPECT_GE(r.fitFallbacks, 1);
    return digestOf(r);
  });
}

TEST(CampaignGolden, ExtendFailWidth1) {
  FaultGuard guard("extend.fail");
  expectGolden(0xba5689b239af0004, [] {
    return digestOf(fallibleRun(baseConfig(10, 2, 1), 21));
  });
}

TEST(CampaignGolden, ExtendFailWidth4) {
  FaultGuard guard("extend.fail");
  expectGolden(0x40e604bf3dcb514a, [] {
    return digestOf(fallibleRun(baseConfig(10, 2, 4), 21));
  });
}

// ------------------------------------------------------- stop reasons

TEST(CampaignGolden, BudgetStop) {
  expectGolden(0xff1116482360804a, [] {
    auto cfg = baseConfig(-1, 1);
    cfg.costBudget = 12.0;
    const auto r = tableRun(cfg, 22);
    EXPECT_EQ(r.stopReason, al::StopReason::Budget);
    return digestOf(r);
  });
}

TEST(CampaignGolden, AmsdConvergedStop) {
  expectGolden(0x390ca49ca843ee92, [] {
    auto cfg = baseConfig(-1, 1);
    cfg.amsdWindow = 3;
    cfg.amsdRelTol = 0.5;
    const auto r = tableRun(cfg, 23);
    EXPECT_EQ(r.stopReason, al::StopReason::AmsdConverged);
    return digestOf(r);
  });
}

TEST(CampaignGolden, ModelUnhealthyStop) {
  FaultGuard guard("gram.nan");
  expectGolden(0x8cba17efcc2c7482, [] {
    const auto r = tableRun(baseConfig(10, 1), 24);
    EXPECT_EQ(r.stopReason, al::StopReason::ModelUnhealthy);
    return digestOf(r);
  });
}

TEST(CampaignGolden, DynamicNoiseBound) {
  expectGolden(0xa4eea6c8b5a64ce0, [] {
    auto cfg = baseConfig(14, 1);
    cfg.dynamicNoiseBound = true;
    return digestOf(tableRun(cfg, 25));
  });
}

// ---------------------------------------------------- continuous loop

TEST(CampaignGolden, ContinuousWidth1) {
  expectGolden(0x8a7a9619437a81c7, [] {
    const auto r = continuousRun(1, continuousOracle());
    expectContinuousCoverage(r);
    return digestOf(r);
  });
}

TEST(CampaignGolden, ContinuousWidth3) {
  expectGolden(0x41297c87a2194e86, [] {
    const auto r = continuousRun(3, continuousOracle());
    expectContinuousCoverage(r);
    return digestOf(r);
  });
}

TEST(CampaignGolden, ContinuousOracleExhaustedWidth1) {
  expectGolden(0x7f3329c1037f2885, [] {
    const auto r = continuousRun(1, downOracle());
    EXPECT_EQ(r.stopReason, al::StopReason::OracleExhausted);
    return digestOf(r);
  });
}

TEST(CampaignGolden, ContinuousOracleExhaustedWidth3) {
  expectGolden(0x346274f101d73816, [] {
    const auto r = continuousRun(3, downOracle());
    EXPECT_EQ(r.stopReason, al::StopReason::OracleExhausted);
    return digestOf(r);
  });
}

TEST(CampaignGolden, ContinuousInfallibleWidth1) {
  expectGolden(0xcddb6116260ed9e4, [] {
    const ContinuousSetup s;
    const al::Oracle oracle = [](std::span<const double> x) {
      return std::sin(x[0]);
    };
    Rng rng(26);
    return digestOf(al::runContinuousAl(
        s.proto, s.seedX, s.seedY, opt::BoxBounds({0.0}, {8.0}), oracle,
        al::varianceAcquisition(), continuousConfig(1), rng));
  });
}
