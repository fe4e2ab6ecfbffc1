// Ablation A11: active learning through a fallible oracle — what
// measurement failures cost the paper's Fig. 6 campaign. Every pick is
// executed under a RetryPolicy; failed attempts burn budget, exhausted
// points are quarantined. The clean run (p = 0) reproduces the ordinary
// table-driven trajectory; 10% and 30% attempt-failure rates show how
// cost inflates while accuracy degrades only through the lost points.

#include <cstdio>

#include "bench_common.hpp"
#include "core/learner.hpp"

namespace bench = alperf::bench;
namespace al = alperf::al;
using alperf::Measurement;
using alperf::stats::Rng;

int main() {
  bench::section("A11: AL campaign cost/accuracy vs oracle failure rate");
  const al::RegressionProblem problem = bench::fig6Problem();

  al::AlConfig cfg;
  cfg.nInitial = 3;
  cfg.maxIterations = 40;
  Rng partRng(42);
  const auto partition =
      alperf::data::triPartition(problem.size(), cfg.nInitial,
                                 cfg.activeFraction, partRng);

  al::RetryPolicy policy;
  policy.maxRetries = 2;
  policy.backoffCostBase = 50.0;  // core-seconds of requeue overhead

  std::printf("  Fig. 6 problem, 40 picks, maxRetries = 2, paired partition\n");
  std::printf("  %-8s %-10s %-12s %-12s %-8s %-8s %-6s\n", "p(fail)",
              "RMSE", "total cost", "wasted", "retries", "quarant",
              "fallbk");

  double cleanCost = 0.0, cleanRmse = 0.0;
  for (const double p : {0.0, 0.1, 0.3}) {
    // Deterministic fallible backend over the job table: an attempt fails
    // with probability p, burning a random fraction of the job's cost.
    Rng failRng(7);
    const al::Oracle oracle = [&](std::size_t row) {
      if (p > 0.0 && failRng.bernoulli(p)) {
        return Measurement::failed(problem.cost[row] *
                                   failRng.uniformReal(0.05, 0.95));
      }
      return Measurement::ok(problem.y[row], problem.cost[row]);
    };

    const al::ActiveLearner learner(
        problem, bench::makeGp(problem.dim()),
        std::make_unique<al::VarianceReduction>(), cfg);
    Rng rng(7);
    const auto result =
        learner.runFallibleWithPartition(oracle, policy, partition, rng);

    const double rmse =
        result.history.empty() ? 0.0 : result.history.back().rmse;
    const double total = result.history.empty()
                             ? 0.0
                             : result.history.back().cumulativeCost;
    double wasted = 0.0, retries = 0.0;
    for (const auto& rec : result.history) {
      wasted += rec.wastedCost;
      retries += rec.failedAttempts;
    }
    if (p == 0.0) {
      cleanCost = total;
      cleanRmse = rmse;
    }
    std::printf("  %-8s %-10s %-12s %-12s %-8s %-8zu %-6d\n",
                bench::fmt(p).c_str(), bench::fmt(rmse).c_str(),
                bench::fmt(total).c_str(), bench::fmt(wasted).c_str(),
                bench::fmt(retries).c_str(), result.quarantined().size(),
                result.fitFallbacks);
    if (p == 0.3 && cleanCost > 0.0) {
      bench::paperVs("cost inflation at 30% attempt failures",
                     "(no paper counterpart; robustness ablation)",
                     bench::fmt(total / cleanCost) + "x clean");
      bench::paperVs("RMSE vs clean campaign", bench::fmt(cleanRmse),
                     bench::fmt(rmse));
    }
  }
  return 0;
}
