// The alperf benchmark: runs one campaign workload (or all three, in one
// process) through the library's public API for a fixed time, checks its
// outputs, and prints its metrics. The last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   albench --workload fig6-vr|fig8-paired|fullspace-async|all
//           --seed N --seconds S --trace 0|1
//           [--record-dir DIR] [--source-id ID]
//
// --trace 0 prints the end-to-end metrics (no timing decorators, only one
// clock read per decision); --trace 1 alternates plain and decorated
// rounds and prints the per-layer metrics. See README.md in this
// directory for the metric definitions.

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "la/cholesky.hpp"
#include "workloads.hpp"

namespace {

using namespace albench;
namespace al = alperf::al;
namespace gp = alperf::gp;

/// Dataset generations per run; setup_s is their median.
constexpr int kSetups = 3;
/// Pool threads. These campaigns are small (n ≤ 151, m ≤ 863): at 4
/// threads fig8-paired ran 5% slower than at 2, and its median decision
/// period, a 0.15 ms incremental update, spread 0.67 (IQR/median over
/// seeds) against 0.22 at 2 threads, because waking idle workers on a
/// virtualized host costs a large share of it.
constexpr int kPoolThreads = 2;
/// fullspace-async measures nproc experiments at once, capped so the
/// workload stays the same on larger hosts.
constexpr int kMaxDispatchWidth = 4;
/// Untimed rounds before the timed section.
constexpr double kWarmUpSeconds = 5.0;
/// Rounds a run makes at least, whatever --seconds says.
constexpr std::size_t kMinRounds = 2;
/// Share of the traced wall time the named components must explain.
constexpr double kReconcileTolerance = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string recordDir;
  std::string sourceId = "unknown";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::string workload;
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::string record;
};

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int cpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Milliseconds between successive decisions of each campaign.
std::vector<double> decisionPeriodsMs(const RoundResult& round) {
  std::vector<double> out;
  for (const auto& log : round.recorder->logs())
    for (std::size_t i = 1; i < log->entryNs.size(); ++i)
      out.push_back(static_cast<double>(log->entryNs[i] - log->entryNs[i - 1]) *
                    1e-6);
  return out;
}

/// Mean test RMSE over a campaign's iterations (the learning curve's
/// area), averaged over campaigns.
double rmseAuc(const Rounds& rounds) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const RoundResult* round : rounds)
    for (const auto& r : round->results) {
      double s = 0.0;
      for (const auto& rec : r.history) s += rec.rmse;
      sum += s / std::max(static_cast<double>(r.history.size()), 1.0);
      ++n;
    }
  return sum / static_cast<double>(std::max<std::size_t>(n, 1));
}

/// Median over campaigns of the final model's RMSE over every job of the
/// problem — an evaluation set that does not depend on the seed; the
/// median keeps one badly fitted campaign from moving it.
double rmseFinal(const Rounds& rounds) {
  std::vector<double> v;
  for (const RoundResult* r : rounds)
    v.insert(v.end(), r->finalRmse.begin(), r->finalRmse.end());
  return median(v);
}

/// Oracle attempts per committed measurement; table-driven workloads
/// measure every pick exactly once.
double attemptsPerExperiment(const Rounds& rounds) {
  double attempts = 0, committed = 0;
  for (const RoundResult* r : rounds) {
    attempts += static_cast<double>(
        r->oracleAttempts > 0 ? static_cast<std::size_t>(r->oracleAttempts)
                              : r->decisions());
    committed += static_cast<double>(r->committed());
  }
  return attempts / std::max(committed, 1.0);
}

/// Timeline decomposition of the decorated rounds on the loop thread.
struct Timeline {
  double wallMs = 0, callMs = 0, strategyMs = 0, updateMs = 0;
  std::vector<double> selectMs, updateGapMs;
  double candidates = 0;
  double cpuS = 0;
};

Timeline timeline(const Rounds& rounds) {
  Timeline t;
  for (const RoundResult* r : rounds) {
    t.wallMs += r->wallS * 1e3;
    t.cpuS += r->cpuS;
    for (const Call& c : r->calls)
      t.callMs += static_cast<double>(c.endNs - c.startNs) * 1e-6;
    for (const auto& log : r->recorder->logs()) {
      for (std::size_t i = 0; i < log->exitNs.size(); ++i) {
        const double sel =
            static_cast<double>(log->exitNs[i] - log->entryNs[i]) * 1e-6;
        t.selectMs.push_back(sel);
        t.strategyMs += sel;
        t.candidates += static_cast<double>(log->candidates[i]);
        if (i + 1 < log->entryNs.size()) {
          const double gap =
              static_cast<double>(log->entryNs[i + 1] - log->exitNs[i]) * 1e-6;
          t.updateGapMs.push_back(gap);
          t.updateMs += gap;
        }
      }
    }
  }
  return t;
}

/// Replays the recorded campaigns' final GP state through the gp and la
/// layers: a full fit, a pool predict and one Cholesky factorization at
/// the final training size, each repeated to take a median.
struct Replay {
  double fitMs = 0, predictMs = 0, predictPoints = 0, cholMs = 0, mflop = 0;
};

Replay replay(const Workload& wl, const RoundResult& round,
              std::uint64_t seed) {
  constexpr std::size_t kCampaigns = 2;
  constexpr int kFitReps = 3, kPredictReps = 15, kCholReps = 30;
  const auto& problem = wl.problem();
  std::vector<double> fit, pred, chol;
  Replay out;
  const std::size_t n = std::min(kCampaigns, round.results.size());
  for (std::size_t c = 0; c < n; ++c) {
    const auto& cp = round.results[c].checkpoint;
    const auto gather = [&](const std::vector<std::size_t>& rows) {
      alperf::la::Matrix x(rows.size(), problem.dim());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto src = problem.x.row(rows[i]);
        std::copy(src.begin(), src.end(), x.row(i).begin());
      }
      return x;
    };
    const auto trainX = gather(cp.train);
    const auto poolX = gather(cp.partition.active);
    for (int k = 0; k < kFitReps; ++k) {
      gp::GaussianProcess g = wl.gpPrototype();
      alperf::stats::Rng rng(seed + static_cast<std::uint64_t>(k));
      const std::int64_t t0 = nowNs();
      g.fit(trainX, cp.trainY, rng);
      fit.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
    }
    gp::GaussianProcess g = wl.gpPrototype();
    g.config().optimize = false;
    g.setThetaFull(cp.gpTheta);
    alperf::stats::Rng rng(seed);
    g.fit(trainX, cp.trainY, rng);
    gp::PredictWorkspace ws;
    for (int k = 0; k < kPredictReps; ++k) {
      const std::int64_t t0 = nowNs();
      const auto p = g.predict(poolX, false, ws);
      pred.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
      if (p.mean.size() != poolX.rows())
        throw std::runtime_error("replay: predict returned wrong size");
    }
    alperf::la::Matrix k = g.kernel().gram(trainX);
    for (std::size_t i = 0; i < k.rows(); ++i) k(i, i) += g.noiseVariance();
    for (int r = 0; r < kCholReps; ++r) {
      const std::int64_t t0 = nowNs();
      const alperf::la::Cholesky factor(k);
      chol.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
      if (factor.dim() != k.rows())
        throw std::runtime_error("replay: Cholesky returned wrong size");
    }
    const auto nd = static_cast<double>(trainX.rows());
    out.mflop += nd * nd * nd / 3.0 * 1e-6 / static_cast<double>(n);
    out.predictPoints +=
        static_cast<double>(poolX.rows()) / static_cast<double>(n);
  }
  out.fitMs = median(fit);
  out.predictMs = median(pred);
  out.cholMs = median(chol);
  return out;
}

Report runWorkload(const std::string& name, const Args& args) {
  Report rep;
  rep.workload = name;
  auto wl = makeWorkload(name, std::min(kMaxDispatchWidth, cpuCount()));

  // Set-up: dataset generation and problem build, several times.
  std::vector<double> setupS, generateMs, problemMs;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = nowNs();
    const auto ds = generateDataset();
    const std::int64_t t1 = nowNs();
    wl->buildProblem(ds);
    const std::int64_t t2 = nowNs();
    setupS.push_back(secondsBetween(t0, t2));
    generateMs.push_back(static_cast<double>(t1 - t0) * 1e-6);
    problemMs.push_back(static_cast<double>(t2 - t1) * 1e-6);
  }
  // Warm-up: whole rounds on inputs of their own (seed + 1) until
  // kWarmUpSeconds have passed. Besides the thread pool, dispatcher slots
  // and lazy first-use paths, this absorbs a start-up ramp: on a 4-vCPU
  // VM the first 5 s of rounds ran up to 40% slower than the rest.
  const std::int64_t warm =
      nowNs() + static_cast<std::int64_t>(kWarmUpSeconds * 1e9);
  for (std::size_t i = 0; nowNs() < warm; ++i)
    (void)wl->runRound(args.seed + 1, i, false);

  // Timed section: rounds 0, 1, 2, ... until the time is up. A trace run
  // runs every round twice, plain then decorated, on the same inputs.
  std::vector<RoundResult> rounds;
  const std::int64_t deadline =
      nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::size_t i = 0; i < kMinRounds || nowNs() < deadline; ++i) {
    rounds.push_back(wl->runRound(args.seed, i, false));
    if (args.trace == 1) rounds.push_back(wl->runRound(args.seed, i, true));
  }
  Rounds plain, decorated;
  for (const auto& r : rounds) (r.timed ? decorated : plain).push_back(&r);

  // Correctness: shape and coverage checks, and identical learning traces
  // for identical inputs — decorated against plain, and a repeat of
  // round 0 against the first run.
  rep.checks = wl->checks(args.trace ? decorated : plain);
  bool identical = true;
  if (args.trace == 1) {
    for (std::size_t i = 0; i < plain.size(); ++i)
      identical = identical && plain[i]->digest == decorated[i]->digest;
  } else {
    identical = wl->runRound(args.seed, 0, false).digest == plain[0]->digest;
  }
  rep.checks.push_back(
      {args.trace ? "digest.decorated_equals_plain"
                  : "digest.repeat_equals_first",
       identical,
       args.trace ? std::to_string(plain.size()) + " round pairs"
                  : "round 0 run twice"});
  for (const auto& r : rounds) rep.attempted += r.campaigns();

  const auto add = [&rep](const std::string& n, double v,
                          const std::string& unit) {
    rep.metrics.push_back({n, v, unit});
  };
  if (args.trace == 0) {
    std::vector<double> walls, periods;
    double wall = 0, campaigns = 0, committed = 0;
    for (const RoundResult* r : plain) {
      walls.push_back(r->wallS);
      wall += r->wallS;
      campaigns += static_cast<double>(r->campaigns());
      committed += static_cast<double>(r->committed());
      const auto p = decisionPeriodsMs(*r);
      periods.insert(periods.end(), p.begin(), p.end());
    }
    add("setup_s", median(setupS), "s");
    add("wall_s", median(walls), "s");
    add("campaigns_per_s", campaigns / wall, "1/s");
    add("experiments_per_s", committed / wall, "1/s");
    add("decide_ms_p50", quantile(periods, 0.5), "ms");
    add("decide_ms_p90", quantile(periods, 0.9), "ms");
    add("rmse_final", rmseFinal(plain), "dimensionless");
    add("attempts_per_experiment", attemptsPerExperiment(plain), "ratio");
    add("peak_rss_mb", peakRssMb(), "MB");
    std::printf("# %s: %zu rounds, %zu campaigns, %zu decision periods "
                "(ms: p10 %.3g, p25 %.3g, p50 %.3g, p75 %.3g, p90 %.3g)\n",
                name.c_str(), plain.size(), static_cast<std::size_t>(campaigns),
                periods.size(), quantile(periods, 0.1),
                quantile(periods, 0.25), quantile(periods, 0.5),
                quantile(periods, 0.75), quantile(periods, 0.9));
  } else {
    const Timeline t = timeline(decorated);
    double campaigns = 0, decisions = 0, committed = 0, plainWall = 0;
    for (const RoundResult* r : plain) plainWall += r->wallS;
    for (const RoundResult* r : decorated) {
      campaigns += static_cast<double>(r->campaigns());
      decisions += static_cast<double>(r->decisions());
      committed += static_cast<double>(r->committed());
    }
    const auto perCampaign = [&](const std::string& counter) {
      return static_cast<double>(totalCount(decorated, counter)) / campaigns;
    };
    double attempts = 0, failed = 0, busyMs = 0, commitWaitMs = 0;
    for (const RoundResult* r : decorated) {
      attempts += static_cast<double>(r->oracleTiming->attempts.load());
      failed += static_cast<double>(r->oracleTiming->failed.load());
      busyMs += static_cast<double>(r->oracleTiming->busyNs.load()) * 1e-6;
      commitWaitMs += r->millis("exec.async.commitwait");
    }
    const Replay rp = replay(*wl, *decorated.back(), args.seed);
    const double hit = perCampaign("gp.poolcache.hit"),
                 append = perCampaign("gp.poolcache.append"),
                 rebuild = perCampaign("gp.poolcache.rebuild");
    const double edgeMs = t.callMs - t.strategyMs - t.updateMs;
    const double unattributedMs = t.wallMs - t.callMs;

    add("cluster.generate_ms", median(generateMs), "ms");
    add("data.problem_ms", median(problemMs), "ms");
    add("core.learner.decisions", decisions / campaigns, "count");
    add("core.learner.fit_full", perCampaign("al.fit.full"), "count");
    add("core.learner.fit_incremental", perCampaign("al.fit.incremental"),
        "count");
    add("core.learner.update_ms", quantile(t.updateGapMs, 0.5), "ms");
    add("core.learner.update_busy_ms", t.updateMs / campaigns, "ms");
    add("core.learner.edge_ms", edgeMs / campaigns, "ms");
    add("core.learner.rmse_auc", rmseAuc(decorated), "dimensionless");
    add("gp.fit.calls", perCampaign("gp.fit"), "count");
    add("gp.fit.replay_ms_p50", rp.fitMs, "ms");
    add("opt.multistart.starts", perCampaign("opt.multistart.starts"),
        "count");
    add("gp.gram.hit", perCampaign("gp.gram.hit"), "count");
    add("la.cholesky.calls", perCampaign("la.cholesky"), "count");
    add("la.trsm.calls", perCampaign("la.trsm"), "count");
    add("la.cholesky.replay_ms", rp.cholMs, "ms");
    add("la.cholesky.mflop", rp.mflop, "Mflop");
    add("gp.predict.replay_ms_p50", rp.predictMs, "ms");
    add("gp.predict.points", rp.predictPoints, "count");
    add("gp.poolcache.hit", hit, "count");
    add("gp.poolcache.append", append, "count");
    add("gp.poolcache.rebuild", rebuild, "count");
    add("gp.poolcache.served_ratio",
        hit + append + rebuild > 0 ? (hit + append) / (hit + append + rebuild)
                                   : 0.0,
        "ratio");
    add("core.strategy.calls",
        static_cast<double>(t.selectMs.size()) / campaigns, "count");
    add("core.strategy.busy_ms", t.strategyMs / campaigns, "ms");
    add("core.strategy.call_ms_p50", quantile(t.selectMs, 0.5), "ms");
    add("core.strategy.call_ms_p90", quantile(t.selectMs, 0.9), "ms");
    add("core.strategy.candidates",
        t.candidates / std::max(static_cast<double>(t.selectMs.size()), 1.0),
        "count");
    add("core.batch.cpu_util",
        t.cpuS / (t.callMs * 1e-3 * alperf::Parallelism::threads()), "ratio");
    add("core.dispatch.attempts", attempts / campaigns, "count");
    add("core.dispatch.failed", failed / campaigns, "count");
    add("core.dispatch.quarantined", perCampaign("exec.async.quarantined"),
        "count");
    add("core.dispatch.oracle_busy_ms", busyMs / campaigns, "ms");
    add("core.dispatch.occupancy",
        attempts > 0 ? busyMs / (t.callMs * wl->width()) : 0.0, "ratio");
    add("core.dispatch.commitwait_ms", commitWaitMs / campaigns, "ms");
    add("core.dispatch.useful_ratio", attempts > 0 ? committed / attempts : 0.0,
        "ratio");
    add("core.dispatch.failed_frac", attempts > 0 ? failed / attempts : 0.0,
        "ratio");
    add("trace.overhead_pct", (t.wallMs * 1e-3 / plainWall - 1.0) * 100.0,
        "%");
    add("trace.wall_ms", t.wallMs / campaigns, "ms");
    add("trace.unattributed_ms", unattributedMs / campaigns, "ms");
    rep.checks.push_back(
        {"trace.reconciles", unattributedMs <= kReconcileTolerance * t.wallMs,
         "strategy + update + edge = " + num(t.callMs) + " of " +
             num(t.wallMs) + " ms decorated wall (tolerance " +
             num(kReconcileTolerance * 100) + "%)"});
  }

  rep.correct = true;
  for (const auto& c : rep.checks) rep.correct = rep.correct && c.ok;
  if (!rep.correct) rep.failed = rep.attempted;

  // The record that travels with the result.
  std::string rec = "{\"workload\":";
  rec += quoted(name);
  rec += ",\"seed\":" + std::to_string(args.seed);
  rec += ",\"seconds\":" + num(args.seconds);
  rec += ",\"trace\":" + std::to_string(args.trace);
  rec += ",\"rounds\":" + std::to_string(rounds.size());
  rec += ",\"nproc\":" + std::to_string(cpuCount());
  rec += ",\"pool_threads\":" + std::to_string(alperf::Parallelism::threads());
  rec += ",\"dispatch_width\":" + std::to_string(wl->width());
  rec += ",\"compiler\":" + quoted(ALBENCH_COMPILER);
  rec += ",\"build_type\":" + quoted(ALBENCH_BUILD_TYPE);
  rec += ",\"source\":" + quoted(args.sourceId);
  rec += std::string(",\"correct\":") + (rep.correct ? "true" : "false");
  rec += ",\"metrics\":{";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    if (i > 0) rec += ",";
    rec += quoted(rep.metrics[i].name) + ":" + num(rep.metrics[i].value);
  }
  rep.record = rec + "}}";
  return rep;
}

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--record-dir") a.recordDir = v;
    else if (k == "--source-id") a.sourceId = v;
    else return false;
  }
  if (argc % 2 == 0) return false;
  const auto names = workloadNames();
  const bool known = a.workload == "all" ||
                     std::find(names.begin(), names.end(), a.workload) !=
                         names.end();
  return known && (a.trace == 0 || a.trace == 1) && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parseArgs(argc, argv, args)) throw std::invalid_argument("usage");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: albench --workload fig6-vr|fig8-paired|"
                 "fullspace-async|all --seed N --seconds S --trace 0|1 "
                 "[--record-dir DIR] [--source-id ID]\n");
    return 2;
  }
  alperf::Parallelism::setThreads(std::min(kPoolThreads, cpuCount()));

  const std::vector<std::string> names =
      args.workload == "all" ? workloadNames()
                             : std::vector<std::string>{args.workload};
  std::vector<Report> reports;
  try {
    for (const auto& n : names) reports.push_back(runWorkload(n, args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "albench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  std::string metrics;
  for (const auto& r : reports) {
    for (const auto& c : r.checks)
      std::printf("check %-45s %s  %s\n", (r.workload + " " + c.name).c_str(),
                  c.ok ? "PASS" : "FAIL", c.detail.c_str());
    for (const auto& m : r.metrics) {
      std::printf("%-16s %-32s %14.6g %s\n", r.workload.c_str(),
                  m.name.c_str(), m.value, m.unit.c_str());
      const std::string key =
          reports.size() > 1 ? r.workload + "." + m.name : m.name;
      metrics += (metrics.empty() ? "" : ", ") + quoted(key) +
                 ": {\"value\": " + num(m.value) +
                 ", \"unit\": " + quoted(m.unit) + "}";
    }
    std::printf("record %s\n", r.record.c_str());
    if (!args.recordDir.empty()) {
      const std::string path = args.recordDir + "/" + r.workload + "-seed" +
                               std::to_string(args.seed) + "-trace" +
                               std::to_string(args.trace) + ".json";
      std::ofstream(path) << r.record << "\n";
    }
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
