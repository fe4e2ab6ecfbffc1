// alperf_tool — command-line driver for the library's main workflows, so
// a measurement campaign can be analyzed without writing C++:
//
//   alperf_tool generate --out DIR [--jobs N] [--seed S]
//       Run the simulated Table-I campaign and write performance.csv /
//       power.csv job databases.
//
//   alperf_tool learn --data CSV --features A,B --response R
//                     [--cost C] [--log A,R] [--strategy vr|ce|random]
//                     [--iterations N] [--noise-lo X] [--seed S]
//                     [--trace OUT.csv|OUT.json] [--metrics OUT.jsonl]
//                     [--perf] [--health] [--no-pool-cache]
//       Run GPR-driven active learning over the job database and report
//       the learning trace and final model quality; --perf appends the
//       perf-counter JSON (see docs/PERFORMANCE.md), --health the
//       numerical-health report (see docs/ROBUSTNESS.md). --trace
//       dispatches on extension: a .json path arms the structured tracer
//       and exports a Chrome trace-event timeline of the campaign
//       (chrome://tracing / Perfetto; docs/OBSERVABILITY.md), anything
//       else writes the per-iteration learning trace as CSV. --metrics
//       writes a JSON-lines snapshot of the perf counters and health
//       incidents after the run.
//
//   alperf_tool tradeoff --data CSV --features A,B --response R --cost C
//                        [--log ...] [--replicates R] [--seed S]
//       Paired Variance-Reduction vs Cost-Efficiency comparison with the
//       cost-error crossover report (the paper's Fig. 8b as a tool).

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "alperf.hpp"

namespace al = alperf::al;
namespace cl = alperf::cluster;
namespace data = alperf::data;
namespace gp = alperf::gp;
using alperf::stats::Rng;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  bool has(const std::string& key) const { return options.count(key) > 0; }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0)
      throw std::invalid_argument("expected --option, got '" + key + "'");
    // Options take one value; a trailing option or one followed by another
    // --option is a boolean flag (e.g. --perf).
    std::string value;
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
      value = argv[++i];
    args.options[key.substr(2)] = value;
  }
  return args;
}

/// Integer option `--name`, or `fallback` when absent. The whole value
/// must be a base-10 integer no smaller than `lo`: trailing garbage, a
/// missing value and out-of-range numbers throw an error naming the flag.
template <class T>
T intOption(const Args& args, const std::string& name, T fallback,
            T lo = std::numeric_limits<T>::min()) {
  if (!args.has(name)) return fallback;
  const std::string& text = args.options.at(name);
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc() && end == text.data() + text.size() && value >= lo)
    return value;
  std::string expected = "an integer";
  if (lo != std::numeric_limits<T>::min())
    expected += " >= " + std::to_string(lo);
  else if (std::is_unsigned_v<T>)
    expected = "a non-negative integer";
  throw std::invalid_argument("--" + name + " expects " + expected +
                              ", got '" + text + "'");
}

std::vector<std::string> splitCsvList(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

void usage() {
  std::printf(
      "usage:\n"
      "  alperf_tool generate --out DIR [--jobs N] [--seed S]\n"
      "  alperf_tool learn --data CSV --features A,B --response R\n"
      "                    [--cost C] [--log A,R] [--strategy vr|ce|random]\n"
      "                    [--iterations N] [--noise-lo X] [--seed S]\n"
      "                    [--trace OUT.csv|OUT.json (.json = Chrome trace)]\n"
      "                    [--metrics OUT.jsonl] [--perf] [--health]\n"
      "                    [--no-pool-cache] [--in-flight N]\n"
      "  alperf_tool tradeoff --data CSV --features A,B --response R\n"
      "                    --cost C [--log ...] [--replicates R] [--seed S]\n");
}

al::RegressionProblem loadProblem(const Args& args) {
  const data::Table table = data::readCsv(args.get("data", ""));
  const auto features = splitCsvList(args.get("features", ""));
  const std::string response = args.get("response", "");
  if (features.empty() || response.empty())
    throw std::invalid_argument("learn/tradeoff need --features and "
                                "--response");
  return al::makeProblem(table, features, response, args.get("cost", ""),
                         splitCsvList(args.get("log", "")));
}

gp::GaussianProcess makePrototype(const Args& args, std::size_t dims) {
  gp::GpConfig cfg;
  cfg.noise.lo = std::stod(args.get("noise-lo", "1e-1"));
  cfg.noise.initial = std::max(cfg.noise.initial, cfg.noise.lo);
  cfg.nRestarts = 1;
  return gp::GaussianProcess(
      gp::makeSquaredExponentialArd(1.0, std::vector<double>(dims, 1.0)),
      cfg);
}

al::StrategyPtr makeStrategy(const std::string& name) {
  if (name == "vr") return std::make_unique<al::VarianceReduction>();
  if (name == "ce") return std::make_unique<al::CostEfficiency>();
  if (name == "random") return std::make_unique<al::RandomSelection>();
  throw std::invalid_argument("unknown strategy '" + name +
                              "' (use vr, ce or random)");
}

int cmdGenerate(const Args& args) {
  const std::string out = args.get("out", "");
  if (out.empty()) throw std::invalid_argument("generate needs --out DIR");
  cl::DatasetConfig cfg;
  cfg.targetJobs = intOption<std::size_t>(args, "jobs", 3246, 1);
  cfg.seed = intOption<std::uint64_t>(args, "seed", 42);
  std::printf("generating %zu-job campaign (seed %llu)...\n", cfg.targetJobs,
              static_cast<unsigned long long>(cfg.seed));
  const auto ds = cl::DatasetGenerator(cfg).generate();
  data::writeCsv(ds.performance, out + "/performance.csv");
  data::writeCsv(ds.power, out + "/power.csv");
  std::printf("wrote %s/performance.csv (%zu jobs) and %s/power.csv "
              "(%zu jobs with energy)\n",
              out.c_str(), ds.performance.numRows(), out.c_str(),
              ds.power.numRows());
  return 0;
}

int cmdLearn(const Args& args) {
  al::AlConfig cfg;
  cfg.maxIterations = intOption<int>(args, "iterations", 50, 0);
  cfg.amsdWindow = 8;
  cfg.amsdRelTol = 0.01;
  // Pool posterior cache A/B switch (results are bit-identical either
  // way; --no-pool-cache shows the uncached cost in --perf).
  cfg.poolPredictCache = !args.has("no-pool-cache");
  // Dispatch width: N > 1 runs up to N measurements concurrently through
  // al::AsyncDispatcher, selecting against a fantasy posterior. The
  // default 1 commits each pick before selecting the next.
  cfg.execution.maxInFlight = intOption<int>(args, "in-flight", 1);
  try {
    cfg.execution.validate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("--in-flight: " + std::string(e.what()));
  }
  const std::uint64_t seed = intOption<std::uint64_t>(args, "seed", 7);
  // --trace dispatches on extension: .json = structured Chrome trace
  // (armed for the campaign via AlConfig::tracePath), else learning-trace
  // CSV after the run.
  const std::string tracePath = args.get("trace", "");
  const bool chromeTrace =
      tracePath.size() >= 5 &&
      tracePath.compare(tracePath.size() - 5, 5, ".json") == 0;
  if (chromeTrace) cfg.tracePath = tracePath;
  const auto problem = loadProblem(args);
  std::printf("loaded %zu jobs, %zu features\n", problem.size(),
              problem.dim());
  al::ActiveLearner learner(problem, makePrototype(args, problem.dim()),
                            makeStrategy(args.get("strategy", "ce")), cfg);
  Rng rng(seed);
  alperf::PerfRegistry::instance().reset();
  alperf::HealthMonitor::instance().reset();
  const auto result = learner.run(rng);

  std::printf("stopped after %zu experiments (%s)\n", result.history.size(),
              al::toString(result.stopReason).c_str());
  if (!result.history.empty()) {
    const auto& last = result.history.back();
    std::printf("final test RMSE %.5f, AMSD %.5f, total cost %.3f\n",
                last.rmse, last.amsd, last.cumulativeCost);
  }
  std::printf("final kernel: %s, sigma_n^2 = %.4g\n",
              result.finalGp.kernel().describe().c_str(),
              result.finalGp.noiseVariance());
  if (args.has("trace")) {
    if (chromeTrace) {
      // The campaign scope already exported on loop exit; just report.
      std::printf("Chrome trace written to %s (load in chrome://tracing "
                  "or https://ui.perfetto.dev)\n",
                  tracePath.c_str());
    } else {
      data::writeCsv(al::historyToTable(result), tracePath);
      std::printf("trace written to %s\n", tracePath.c_str());
    }
  }
  if (args.has("metrics")) {
    const std::string metricsPath = args.get("metrics", "");
    if (alperf::trace::writeMetricsSnapshot(metricsPath))
      std::printf("metrics snapshot written to %s\n", metricsPath.c_str());
    else
      std::printf("error: could not write metrics snapshot to %s\n",
                  metricsPath.c_str());
  }
  if (args.has("perf")) {
    // Dumps every registered counter, which now includes the dense-LA
    // kernels (la.cholesky, la.gemm, la.trsm) and the gram/distance cache
    // (gp.gram.hit/miss, gp.distcache.append/rebuild).
    auto& reg = alperf::PerfRegistry::instance();
    std::printf("perf_stats %s\n", reg.toJson().c_str());
    const double hits = static_cast<double>(reg.count("gp.gram.hit"));
    const double misses = static_cast<double>(reg.count("gp.gram.miss"));
    if (hits + misses > 0.0)
      std::printf("gram cache hit rate %.1f%% (%.0f hit / %.0f miss)\n",
                  100.0 * hits / (hits + misses), hits, misses);
    const double pcHit = static_cast<double>(reg.count("gp.poolcache.hit"));
    const double pcApp =
        static_cast<double>(reg.count("gp.poolcache.append"));
    const double pcReb =
        static_cast<double>(reg.count("gp.poolcache.rebuild"));
    const double pcTotal = pcHit + pcApp + pcReb;
    if (pcTotal > 0.0)
      std::printf(
          "pool cache served %.1f%% without rebuild "
          "(%.0f hit / %.0f append / %.0f rebuild)\n",
          100.0 * (pcHit + pcApp) / pcTotal, pcHit, pcApp, pcReb);
  }
  if (args.has("health")) {
    // Numerical-health report: recovery/containment counter totals plus
    // the ring buffer of recent incidents (docs/ROBUSTNESS.md).
    std::printf("%s", alperf::HealthMonitor::instance().report().c_str());
  }
  return 0;
}

int cmdTradeoff(const Args& args) {
  al::BatchConfig cfg;
  cfg.replicates = intOption<int>(args, "replicates", 10, 1);
  cfg.seed = intOption<std::uint64_t>(args, "seed", 7);
  cfg.al.refitEvery = 3;
  if (!args.has("cost"))
    throw std::invalid_argument("tradeoff needs --cost COLUMN");
  const auto problem = loadProblem(args);
  std::printf("loaded %zu jobs; paired VR vs CE comparison\n",
              problem.size());

  const auto results = al::runPairedBatch(
      problem, makePrototype(args, problem.dim()),
      {[] { return std::make_unique<al::VarianceReduction>(); },
       [] { return std::make_unique<al::CostEfficiency>(); }},
      cfg);

  const auto vr = al::aggregateTradeoff(results[0]);
  const auto ce = al::aggregateTradeoff(results[1]);
  std::printf("%-14s %-14s %-14s\n", "budget", "VR error", "CE error");
  for (double c = vr.cost.front(); c <= vr.cost.back(); c *= 2.0)
    std::printf("%-14.2f %-14.5f %-14.5f\n", c, vr.errorAt(c),
                ce.errorAt(c));
  const auto report = al::compareTradeoffs(vr, ce);
  if (report.found) {
    std::printf("\nCost Efficiency dominates beyond budget %.2f "
                "(max error reduction %.0f%% at %.2f)\n",
                report.crossoverCost, 100.0 * report.maxReduction,
                report.maxReductionCost);
  } else {
    std::printf("\nno crossover: Variance Reduction preferable over the "
                "covered budget range\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.command == "generate") return cmdGenerate(args);
    if (args.command == "learn") return cmdLearn(args);
    if (args.command == "tradeoff") return cmdTradeoff(args);
    usage();
    return args.command.empty() ? 1 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 1;
  }
}
