// Failure-injection tests: crashed job attempts must requeue, burn
// accounted time, respect retry limits, and never corrupt the core
// accounting; walltime kills must censor, not retry; non-finite
// responses must be rejected at every boundary before they can reach a
// Cholesky — plus the analytic posterior input-gradient added for
// gradient-based continuous suggestions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/scheduler.hpp"
#include "core/continuous.hpp"
#include "core/dispatch.hpp"
#include "core/problem.hpp"
#include "gp/kernels.hpp"

namespace al = alperf::al;
namespace cl = alperf::cluster;
namespace gp = alperf::gp;
namespace la = alperf::la;
namespace opt = alperf::opt;
using alperf::stats::Rng;

namespace {

cl::PerfModelParams quiet() {
  cl::PerfModelParams p;
  p.noiseSigma = 1e-6;
  p.spikeProbability = 0.0;
  return p;
}

cl::ClusterConfig failing(double probability, int retries) {
  cl::ClusterConfig cfg;
  cfg.failureProbability = probability;
  cfg.maxRetries = retries;
  return cfg;
}

}  // namespace

TEST(FailureInjection, ZeroProbabilityIsCleanRun) {
  cl::ClusterSim sim(failing(0.0, 3), cl::PerfModel(quiet()), 1);
  sim.submit({cl::Operator::Poisson1, 1.0e6, 8, 2.4}, 0.0);
  sim.run();
  const auto& rec = sim.records()[0];
  EXPECT_EQ(rec.attempts, 1);
  EXPECT_FALSE(rec.failed);
  EXPECT_DOUBLE_EQ(rec.wastedSeconds, 0.0);
}

TEST(FailureInjection, RetriesEventuallySucceed) {
  // 50% failure, generous retries: every job should finish, some after
  // multiple attempts with wasted time accounted.
  cl::ClusterSim sim(failing(0.5, 10), cl::PerfModel(quiet()), 7);
  for (int i = 0; i < 30; ++i)
    sim.submit({cl::Operator::Poisson1, 1.0e6, 8, 2.4}, i * 1.0);
  sim.run();
  int retried = 0;
  for (const auto& rec : sim.records()) {
    EXPECT_FALSE(rec.failed) << "job " << rec.id;
    EXPECT_GE(rec.attempts, 1);
    if (rec.attempts > 1) {
      ++retried;
      EXPECT_GT(rec.wastedSeconds, 0.0);
    } else {
      EXPECT_DOUBLE_EQ(rec.wastedSeconds, 0.0);
    }
    EXPECT_GT(rec.runtimeSeconds, 0.0);
  }
  EXPECT_GT(retried, 5);  // with p=0.5 over 30 jobs, many must retry
}

TEST(FailureInjection, ExhaustedRetriesMarkFailed) {
  // Certain failure, one retry: every job fails after exactly 2 attempts.
  cl::ClusterSim sim(failing(1.0, 1), cl::PerfModel(quiet()), 3);
  for (int i = 0; i < 5; ++i)
    sim.submit({cl::Operator::Poisson1, 1.0e6, 16, 2.4}, i * 1.0);
  sim.run();
  for (const auto& rec : sim.records()) {
    EXPECT_TRUE(rec.failed);
    EXPECT_EQ(rec.attempts, 2);
    EXPECT_GT(rec.wastedSeconds, 0.0);  // the first attempt's window
    // The terminal attempt still has a (partial) runtime and window.
    EXPECT_GT(rec.runtimeSeconds, 0.0);
    EXPECT_GT(rec.endTime, rec.startTime);
  }
}

TEST(FailureInjection, CoresNeverOverAllocatedUnderChaos) {
  cl::ClusterConfig cfg = failing(0.4, 5);
  cl::ClusterSim sim(cfg, cl::PerfModel(quiet()), 11);
  for (int i = 0; i < 40; ++i)
    sim.submit({cl::Operator::Poisson1, 1.0e6, 1 + (i * 13) % 64, 2.4},
               i * 0.5);
  sim.run();
  // Reconstruct per-node usage from load intervals at many probe times.
  for (int n = 0; n < cfg.nodes; ++n) {
    const auto& load = sim.nodeLoad(n);
    for (const auto& probe : load) {
      const double t = 0.5 * (probe.begin + probe.end);
      double util = 0.0;
      for (const auto& iv : load)
        if (iv.begin <= t && t < iv.end) util += iv.utilization;
      EXPECT_LE(util, 1.0 + 1e-9) << "node " << n << " t=" << t;
    }
  }
}

TEST(FailureInjection, WastedTimeGrowsWithFailureRate) {
  const auto totalWaste = [](double p, std::uint64_t seed) {
    cl::ClusterSim sim(failing(p, 10), cl::PerfModel(quiet()), seed);
    for (int i = 0; i < 25; ++i)
      sim.submit({cl::Operator::Poisson1, 1.0e7, 16, 2.4}, i * 1.0);
    sim.run();
    double w = 0.0;
    for (const auto& rec : sim.records()) w += rec.wastedSeconds;
    return w;
  };
  EXPECT_GT(totalWaste(0.6, 5), totalWaste(0.1, 5));
}

// ---------------------------------------- walltime enforcement

TEST(WalltimeKill, CensorsInsteadOfRetrying) {
  // Lognormal runtime noise with margin 1.0: roughly half the attempts
  // exceed the requested walltime and must come back censored at exactly
  // the limit, terminally (attempts == 1, nothing requeued).
  cl::PerfModelParams noisy = quiet();
  noisy.noiseSigma = 0.4;
  cl::ClusterConfig cfg;
  cfg.enforceWalltime = true;
  cfg.walltimeMargin = 1.0;
  cl::PerfModel model(noisy);
  cl::ClusterSim sim(cfg, model, 21);
  const cl::JobRequest req{cl::Operator::Poisson1, 1.0e6, 8, 2.4};
  for (int i = 0; i < 40; ++i) sim.submit(req, i * 1.0);
  sim.run();
  const double limit = model.meanRuntime(req);
  int censored = 0;
  for (const auto& rec : sim.records()) {
    EXPECT_FALSE(rec.failed);
    EXPECT_EQ(rec.attempts, 1);
    EXPECT_LE(rec.runtimeSeconds, limit * (1.0 + 1e-12));
    if (rec.censored) {
      ++censored;
      EXPECT_DOUBLE_EQ(rec.runtimeSeconds, limit);
    }
  }
  EXPECT_GT(censored, 5);
  EXPECT_LT(censored, 35);
}

TEST(WalltimeKill, DisabledByDefault) {
  cl::PerfModelParams noisy = quiet();
  noisy.noiseSigma = 0.4;
  cl::ClusterSim sim(cl::ClusterConfig{}, cl::PerfModel(noisy), 21);
  for (int i = 0; i < 40; ++i)
    sim.submit({cl::Operator::Poisson1, 1.0e6, 8, 2.4}, i * 1.0);
  sim.run();
  for (const auto& rec : sim.records()) EXPECT_FALSE(rec.censored);
}

TEST(ClusterConfigValidation, RejectsNonsense) {
  const cl::PerfModel model{quiet()};
  const auto make = [&](auto mutate) {
    cl::ClusterConfig cfg;
    mutate(cfg);
    cl::ClusterSim sim(cfg, model, 1);
  };
  EXPECT_THROW(make([](cl::ClusterConfig& c) { c.failureProbability = -0.1; }),
               std::invalid_argument);
  EXPECT_THROW(make([](cl::ClusterConfig& c) { c.failureProbability = 1.5; }),
               std::invalid_argument);
  EXPECT_THROW(make([](cl::ClusterConfig& c) { c.maxRetries = -1; }),
               std::invalid_argument);
  EXPECT_THROW(make([](cl::ClusterConfig& c) { c.walltimeMargin = 0.5; }),
               std::invalid_argument);
  EXPECT_THROW(make([](cl::ClusterConfig& c) { c.nodes = 0; }),
               std::invalid_argument);
  EXPECT_NO_THROW(make([](cl::ClusterConfig&) {}));
}

// ---------------------------------------- measureJob outcome mapping

TEST(MeasureJob, CleanRunIsOk) {
  const cl::JobRequest req{cl::Operator::Poisson1, 1.0e6, 8, 2.4};
  const auto m = cl::measureJob(cl::ClusterConfig{}, cl::PerfModel(quiet()),
                                req, 5);
  EXPECT_EQ(m.status, alperf::MeasurementStatus::Ok);
  EXPECT_GT(m.y, 0.0);
  EXPECT_GT(m.cost, 0.0);
  EXPECT_DOUBLE_EQ(m.wastedCost, 0.0);
  EXPECT_EQ(m.attempts, 1);
  EXPECT_TRUE(m.usable());
}

TEST(MeasureJob, ExhaustedRetriesAreFailed) {
  const cl::JobRequest req{cl::Operator::Poisson1, 1.0e6, 8, 2.4};
  const auto m = cl::measureJob(failing(1.0, 2), cl::PerfModel(quiet()),
                                req, 5);
  EXPECT_EQ(m.status, alperf::MeasurementStatus::Failed);
  EXPECT_FALSE(m.usable());
  EXPECT_EQ(m.attempts, 3);       // 1 initial + 2 retries, all crashed
  EXPECT_GT(m.totalCost(), 0.0);  // burning the machine is not free
}

TEST(MeasureJob, WalltimeKillIsCensoredAtTheLimit) {
  cl::PerfModelParams noisy = quiet();
  noisy.noiseSigma = 0.4;
  cl::ClusterConfig cfg;
  cfg.enforceWalltime = true;
  cfg.walltimeMargin = 1.0;
  const cl::PerfModel model(noisy);
  const cl::JobRequest req{cl::Operator::Poisson1, 1.0e6, 8, 2.4};
  int censored = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto m = cl::measureJob(cfg, model, req, seed);
    ASSERT_NE(m.status, alperf::MeasurementStatus::Failed);
    if (m.status == alperf::MeasurementStatus::Censored) {
      ++censored;
      EXPECT_DOUBLE_EQ(m.y, model.meanRuntime(req));  // the lower bound
      EXPECT_GT(m.cost, 0.0);
    }
  }
  EXPECT_GT(censored, 3);   // ~half the seeds overrun a margin-1.0 walltime
  EXPECT_LT(censored, 27);  // ...and ~half do not
}

// ---------------------------------------- non-finite response rejection

TEST(NonFiniteResponses, MeasurementFactoriesReject) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(alperf::Measurement::ok(nan, 1.0), std::invalid_argument);
  EXPECT_THROW(alperf::Measurement::ok(inf, 1.0), std::invalid_argument);
  EXPECT_THROW(alperf::Measurement::ok(1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(alperf::Measurement::censored(nan, 1.0),
               std::invalid_argument);
  EXPECT_THROW(alperf::Measurement::failed(-2.0), std::invalid_argument);
  EXPECT_THROW(alperf::Measurement::failed(1.0, 0), std::invalid_argument);
}

TEST(NonFiniteResponses, ProblemValidationRejectsBadRows) {
  al::RegressionProblem p;
  p.x = la::Matrix(2, 1);
  p.x(0, 0) = 0.0;
  p.x(1, 0) = 1.0;
  p.y = {1.0, std::numeric_limits<double>::quiet_NaN()};
  p.cost = {1.0, 1.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.y[1] = 2.0;
  EXPECT_NO_THROW(p.validate());
  p.cost[0] = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.cost[0] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(NonFiniteResponses, PlainContinuousOracleThrows) {
  Rng rng(9);
  la::Matrix x(4, 1);
  la::Vector y(4);
  for (std::size_t i = 0; i < 4; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = std::sin(static_cast<double>(i));
  }
  gp::GpConfig cfg;
  cfg.nRestarts = 1;
  cfg.noise.lo = 1e-4;
  gp::GaussianProcess g(gp::makeSquaredExponential(1.0, 1.0), cfg);
  const al::Oracle bad = [](std::span<const double>) {
    return std::numeric_limits<double>::quiet_NaN();
  };
  al::ContinuousAlConfig alCfg;
  alCfg.iterations = 2;
  alCfg.nStarts = 2;
  EXPECT_THROW(al::runContinuousAl(g, x, y, opt::BoxBounds({0.0}, {3.0}),
                                   bad, al::varianceAcquisition(), alCfg,
                                   rng),
               std::invalid_argument);
}

TEST(NonFiniteResponses, ExecutorDemotesNonFiniteOkToFailed) {
  // A backend that bypasses the Measurement factories and hands back a raw
  // "Ok" NaN must still never reach the GP: the retry state machine
  // demotes it.
  al::ExecutionConfig exec;
  exec.retry.maxRetries = 1;
  int calls = 0;
  al::AsyncDispatcher dispatcher(
      [&](std::span<const double>) {
        ++calls;
        alperf::Measurement m;  // aggregate, skipping ok()'s validation
        m.status = alperf::MeasurementStatus::Ok;
        m.y = std::numeric_limits<double>::quiet_NaN();
        m.cost = 2.0;
        return m;
      },
      exec);
  const double x[] = {0.0};
  dispatcher.submit(al::Oracle::kNoRow, x);
  const auto result = dispatcher.commitNext().result;
  EXPECT_EQ(calls, 2);  // retried once, then gave up
  EXPECT_TRUE(result.quarantined);
  EXPECT_FALSE(result.measurement.usable());
  EXPECT_DOUBLE_EQ(result.wastedCost, 4.0);  // both attempts' burn
}

// ---------------------------------------- analytic posterior gradients

TEST(PredictGradient, MatchesFiniteDifferences) {
  Rng rng(1);
  la::Matrix x(12, 2);
  la::Vector y(12);
  for (std::size_t i = 0; i < 12; ++i) {
    x(i, 0) = rng.uniformReal(0.0, 4.0);
    x(i, 1) = rng.uniformReal(0.0, 4.0);
    y[i] = std::sin(x(i, 0)) - 0.5 * x(i, 1);
  }
  gp::GpConfig cfg;
  cfg.nRestarts = 1;
  cfg.noise.lo = 1e-4;
  gp::GaussianProcess g(gp::makeSquaredExponentialArd(1.0, {1.0, 1.0}),
                        cfg);
  g.fit(x, y, rng);

  const double h = 1e-6;
  for (const auto& q :
       {std::vector<double>{1.0, 2.0}, std::vector<double>{3.3, 0.7}}) {
    const auto pg = g.predictOneWithGradient(q);
    const auto [m0, v0] = g.predictOne(q);
    EXPECT_NEAR(pg.mean, m0, 1e-12);
    EXPECT_NEAR(pg.variance, v0, 1e-12);
    for (std::size_t dim = 0; dim < 2; ++dim) {
      auto qp = q;
      qp[dim] += h;
      const auto [mUp, vUp] = g.predictOne(qp);
      qp[dim] = q[dim] - h;
      const auto [mDn, vDn] = g.predictOne(qp);
      EXPECT_NEAR(pg.meanGrad[dim], (mUp - mDn) / (2.0 * h), 1e-5)
          << "dim " << dim;
      EXPECT_NEAR(pg.varianceGrad[dim], (vUp - vDn) / (2.0 * h), 1e-5)
          << "dim " << dim;
    }
  }
}

TEST(KernelEvalGradX, AnalyticMatchesNumericAcrossKernels) {
  const std::vector<double> a{0.7, -0.3};
  const std::vector<double> b{-0.2, 1.1};
  std::vector<gp::KernelPtr> kernels;
  kernels.push_back(std::make_unique<gp::RbfKernel>(0.8));
  kernels.push_back(std::make_unique<gp::Matern32Kernel>(1.1));
  kernels.push_back(
      std::make_unique<gp::Matern52Kernel>(std::vector<double>{0.9, 1.3}));
  kernels.push_back(
      std::make_unique<gp::RationalQuadraticKernel>(1.2, 0.7));
  kernels.push_back(gp::makeSquaredExponential(2.0, 0.6));
  kernels.push_back(std::make_unique<gp::RbfKernel>(0.5) +
                    std::make_unique<gp::Matern32Kernel>(1.0));
  for (const auto& k : kernels) {
    std::vector<double> grad(2);
    k->evalGradX(a, b, grad);
    const double h = 1e-7;
    for (std::size_t d = 0; d < 2; ++d) {
      auto ap = a;
      ap[d] += h;
      const double up = k->eval(ap, b);
      ap[d] = a[d] - h;
      const double dn = k->eval(ap, b);
      EXPECT_NEAR(grad[d], (up - dn) / (2.0 * h), 1e-6)
          << k->describe() << " dim " << d;
    }
  }
}

TEST(KernelEvalGradX, ZeroAtCoincidentPointsForStationary) {
  gp::RbfKernel k(1.0);
  const std::vector<double> a{1.5, -2.0};
  std::vector<double> grad(2);
  k.evalGradX(a, a, grad);
  EXPECT_DOUBLE_EQ(grad[0], 0.0);
  EXPECT_DOUBLE_EQ(grad[1], 0.0);
}

TEST(SuggestContinuousGrad, AgreesWithNumericVariant) {
  Rng rng(2);
  std::vector<double> xs{0.0, 0.5, 1.0, 1.5, 2.0};
  la::Matrix x(xs.size(), 1);
  la::Vector y(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    x(i, 0) = xs[i];
    y[i] = std::sin(xs[i]);
  }
  gp::GpConfig cfg;
  cfg.nRestarts = 1;
  cfg.noise.lo = 1e-4;
  gp::GaussianProcess g(gp::makeSquaredExponential(1.0, 1.0), cfg);
  g.fit(x, y, rng);

  const opt::BoxBounds bounds({0.0}, {10.0});
  Rng r1(3), r2(3);
  const auto numeric =
      al::suggestContinuous(g, bounds, al::varianceAcquisition(), 6, r1);
  const auto analytic = al::suggestContinuous(
      g, bounds, al::varianceAcquisitionGrad(), 6, r2);
  // Same seeds, same starts: both should land on (nearly) the same
  // maximizer of the same smooth acquisition.
  EXPECT_NEAR(analytic.acquisition, numeric.acquisition,
              1e-3 * std::abs(numeric.acquisition));
  EXPECT_NEAR(analytic.x[0], numeric.x[0], 0.05);
}

TEST(SuggestContinuousGrad, Validation) {
  gp::GpConfig cfg;
  gp::GaussianProcess g(gp::makeSquaredExponential(1.0, 1.0), cfg);
  Rng rng(4);
  la::Matrix x(2, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  g.fit(x, la::Vector{0.0, 1.0}, rng);
  al::GradientAcquisition broken;
  broken.value = [](double, double sd) { return sd; };
  EXPECT_THROW(al::suggestContinuous(g, opt::BoxBounds({0.0}, {1.0}),
                                     broken, 2, rng),
               std::invalid_argument);
}
