// Fault-tolerant campaign: active learning against a cluster backend
// that crashes and walltime-kills jobs, with a mid-campaign checkpoint
// and a bit-for-bit resume — the workflow for long campaigns on shared
// machines where both the jobs and the driving process can die.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/fault_tolerant_campaign

#include <cmath>
#include <cstdio>

#include "cluster/scheduler.hpp"
#include "core/checkpoint.hpp"
#include "core/learner.hpp"
#include "gp/kernels.hpp"

namespace al = alperf::al;
namespace cl = alperf::cluster;
namespace gp = alperf::gp;
using alperf::Measurement;
using alperf::stats::Rng;

int main() {
  // 1. The design space: HPGMG-FE problem sizes at NP = 32. The "true"
  //    responses come from the simulated cluster below, but the planner
  //    needs candidate rows, their features, and a cost estimate up
  //    front (the paper's job database without the measurements).
  cl::ClusterConfig cluster;
  cluster.failureProbability = 0.15;  // flaky nodes
  cluster.maxRetries = 1;             // the scheduler requeues once
  cluster.enforceWalltime = true;     // overruns are killed, not retried
  cluster.walltimeMargin = 1.5;
  const cl::PerfModel model{cl::PerfModelParams{}};

  const std::size_t nRows = 48;
  al::RegressionProblem problem;
  problem.x = alperf::la::Matrix(nRows, 1);
  problem.y.resize(nRows);
  problem.cost.resize(nRows);
  std::vector<cl::JobRequest> requests(nRows);
  for (std::size_t i = 0; i < nRows; ++i) {
    cl::JobRequest req;
    req.globalSize = 2.0e5 * std::pow(1.18, static_cast<double>(i));
    req.np = 32;
    requests[i] = req;
    problem.x(i, 0) = std::log10(req.globalSize);
    // Planner-side estimates; the fallible oracle supplies the truth.
    problem.y[i] = std::log10(model.meanRuntime(req));
    problem.cost[i] = model.meanRuntime(req) * 32.0;
  }
  problem.featureNames = {"log10(dofs)"};
  problem.responseName = "log10(runtime)";

  // 2. The fallible oracle: each pick becomes a real (simulated) job.
  //    Crashed-out jobs come back Failed, walltime kills come back
  //    Censored with a lower bound; the executor layer retries, charges
  //    waste, and quarantines hopeless rows.
  std::uint64_t jobSeed = 1000;
  const al::Oracle oracle = [&](std::size_t row) {
    Measurement m = cl::measureJob(cluster, model, requests[row], ++jobSeed);
    if (m.usable()) m.y = std::log10(m.y);  // model log-runtime
    return m;
  };
  al::RetryPolicy policy;
  policy.maxRetries = 1;
  policy.backoffCostBase = 100.0;  // core-seconds per requeue

  gp::GpConfig gpCfg;
  gpCfg.noise.lo = 1e-2;
  gpCfg.nRestarts = 2;
  al::AlConfig alCfg;
  alCfg.nInitial = 2;
  alCfg.maxIterations = 10;  // "the process dies after 10 picks"
  const al::ActiveLearner firstHalf(
      problem, gp::GaussianProcess(gp::makeSquaredExponential(1.0, 1.0), gpCfg),
      std::make_unique<al::CostEfficiency>(), alCfg);

  // 3. First half of the campaign, then checkpoint to disk.
  Rng rng(7);
  const auto partial = firstHalf.runFallible(oracle, policy, rng);
  al::saveCheckpoint(partial.checkpoint, "fault_tolerant_campaign_ckpt");
  std::printf("after %zu iterations: %zu trained, %zu quarantined, "
              "%.0f core-s spent (%.0f wasted)\n",
              partial.history.size(), partial.checkpoint.train.size(),
              partial.quarantined().size(),
              partial.checkpoint.cumulativeCost,
              partial.history.empty()
                  ? 0.0
                  : [&] {
                      double w = 0.0;
                      for (const auto& r : partial.history)
                        w += r.wastedCost;
                      return w;
                    }());

  // 4. "Restart": load the checkpoint and continue to 25 iterations. The
  //    resumed trace is bit-for-bit what an uninterrupted run would have
  //    produced, because the checkpoint carries the RNG state and the
  //    last good GP hyperparameters.
  alCfg.maxIterations = 25;
  const al::ActiveLearner secondHalf(
      problem, gp::GaussianProcess(gp::makeSquaredExponential(1.0, 1.0), gpCfg),
      std::make_unique<al::CostEfficiency>(), alCfg);
  const auto loaded = al::loadCheckpoint("fault_tolerant_campaign_ckpt");
  Rng resumeRng(0);  // overwritten by the checkpoint's saved state
  const auto result =
      secondHalf.resumeFallible(loaded, oracle, policy, resumeRng);

  std::printf("\n%-5s %-10s %-10s %-8s %-8s %-12s\n", "iter", "AMSD",
              "RMSE", "retries", "cens.", "cum. cost");
  for (const auto& rec : result.history)
    std::printf("%-5d %-10.4f %-10.4f %-8.0f %-8.0f %-12.0f\n",
                rec.iteration, rec.amsd, rec.rmse, rec.failedAttempts,
                rec.censored, rec.cumulativeCost);

  std::printf("\nstop: %s; %zu rows quarantined; %d refit fallback(s)\n",
              al::toString(result.stopReason).c_str(),
              result.quarantined().size(), result.fitFallbacks);
  return 0;
}
