#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/batch.hpp"
#include "core/tradeoff.hpp"
#include "gp/kernels.hpp"

namespace albench {

namespace al = alperf::al;
namespace cluster = alperf::cluster;
namespace data = alperf::data;
namespace gp = alperf::gp;
using alperf::Measurement;
using alperf::PerfRegistry;
using alperf::stats::Rng;

std::uint64_t RoundResult::count(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.count;
}

double RoundResult::millis(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second.totalMillis();
}

std::size_t RoundResult::decisions() const {
  std::size_t n = 0;
  for (const auto& log : recorder->logs()) n += log->decisions();
  return n;
}

std::size_t RoundResult::committed() const {
  std::size_t n = 0;
  for (const auto& r : results)
    n += r.checkpoint.train.size() - r.partition.initial.size();
  return n;
}

std::uint64_t totalCount(const Rounds& rounds, const std::string& name) {
  std::uint64_t n = 0;
  for (const RoundResult* r : rounds) n += r->count(name);
  return n;
}

RoundResult Workload::runRound(std::uint64_t seed, std::size_t index,
                               bool timed) {
  RoundResult round;
  round.index = index;
  round.timed = timed;
  round.recorder = std::make_unique<Recorder>(timed);
  if (timed) round.oracleTiming = std::make_unique<OracleStats>();
  PerfRegistry::instance().reset();
  const std::int64_t start = nowNs();
  runCampaigns(seed, round);
  round.wallS = secondsBetween(start, nowNs());
  for (const auto& e : PerfRegistry::instance().snapshot())
    round.counters[e.name] = e;
  ALPERF_ASSERT(round.results.size() == round.recorder->logs().size(),
                "albench: one strategy probe per campaign");

  // Learning-trace digest: picks and RMSE bits of every record plus every
  // committed response, campaign by campaign.
  Digest d;
  for (const auto& r : round.results) {
    for (const auto& rec : r.history) {
      d.add(static_cast<std::uint64_t>(rec.chosenRow));
      d.add(rec.rmse);
    }
    for (double y : r.checkpoint.trainY) d.add(y);
  }
  round.digest = d.value();

  const auto& p = problem();
  for (auto& r : round.results) {
    const auto pred = r.finalGp.predict(p.x);
    double se = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i)
      se += (pred.mean[i] - p.y[i]) * (pred.mean[i] - p.y[i]);
    round.finalRmse.push_back(std::sqrt(se / static_cast<double>(p.size())));
    r.finalGp = gpPrototype();
  }
  return round;
}

namespace {

/// Times one call into the learner layer and the process CPU it used.
template <class F>
void timedCall(RoundResult& round, F&& f) {
  const double cpu0 = processCpuSeconds();
  Call c;
  c.startNs = nowNs();
  f();
  c.endNs = nowNs();
  round.cpuS += processCpuSeconds() - cpu0;
  round.calls.push_back(c);
}

/// Constant · ARD squared-exponential with a bounded noise floor — the
/// GP prototype of the paper's figures.
gp::GaussianProcess makeGp(std::size_t dims, double noiseLo, int restarts,
                           int optIterations = 40) {
  gp::GpConfig cfg;
  cfg.nRestarts = restarts;
  cfg.noise.lo = noiseLo;
  cfg.noise.initial = std::max(1e-2, noiseLo);
  cfg.optStop.maxIterations = optIterations;
  return gp::GaussianProcess(
      gp::makeSquaredExponentialArd(1.0, std::vector<double>(dims, 1.0)),
      cfg);
}

/// poisson1 rows of the performance table (optionally one NP level) with
/// the linear cost column runtime × cores appended.
data::Table poissonSubset(const data::Table& perf, double np) {
  auto sub = perf.filter([&](std::size_t i) {
    return perf.categorical("Operator")[i] == "poisson1" &&
           (np <= 0.0 || perf.numeric("NP")[i] == np);
  });
  std::vector<double> cost(sub.numRows());
  for (std::size_t i = 0; i < sub.numRows(); ++i)
    cost[i] = sub.numeric("RuntimeS")[i] * sub.numeric("CoresUsed")[i];
  sub.addNumeric("CostCoreS", std::move(cost));
  return sub;
}

Check makeCheck(std::string name, bool ok, const std::string& detail) {
  return Check{std::move(name), ok, detail};
}

std::string str(double v) {
  std::ostringstream os;
  os.precision(5);
  os << v;
  return os.str();
}

/// Checks shared by the workloads that run every pool to exhaustion.
Check exhaustedCheck(const Rounds& rounds) {
  bool ok = true;
  std::size_t campaigns = 0;
  for (const RoundResult* round : rounds)
    for (const auto& r : round->results) {
      ok = ok && r.stopReason == al::StopReason::PoolExhausted &&
           r.history.size() == r.partition.active.size();
      ++campaigns;
    }
  return makeCheck("campaigns_exhaust_pool", ok,
                   std::to_string(campaigns) + " campaigns");
}

Check noAsyncCheck(const Rounds& rounds) {
  std::uint64_t total = 0;
  for (const RoundResult* round : rounds)
    for (const auto& [name, e] : round->counters)
      if (name.rfind("exec.async.", 0) == 0) total += e.count;
  return makeCheck("coverage.exec_async_zero", total == 0,
                   "exec.async.* events " + std::to_string(total));
}

Check poolCacheAppendCheck(const Rounds& rounds, bool expectAppends) {
  const std::uint64_t n = totalCount(rounds, "gp.poolcache.append");
  return makeCheck(expectAppends ? "coverage.poolcache_append_nonzero"
                                 : "coverage.poolcache_append_zero",
                   expectAppends ? n > 0 : n == 0,
                   "gp.poolcache.append " + std::to_string(n));
}

data::TriPartition drawPartition(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  return data::triPartition(rows, 1, 0.8, rng);
}

// ---------------------------------------------------------------- fig6-vr

/// Fig. 6: VarianceReduction on the 2-D poisson1/NP=32 subset, full
/// multistart refit every iteration, every pool run to exhaustion. One
/// campaign per round.
class Fig6Vr final : public Workload {
 public:
  std::string name() const override { return "fig6-vr"; }

  void buildProblem(const cluster::GeneratedDataset& ds) override {
    problem_ = al::makeProblem(poissonSubset(ds.performance, 32.0),
                               {"GlobalSize", "FreqGHz"}, "RuntimeS",
                               "CostCoreS", {"GlobalSize", "RuntimeS"});
  }

  std::vector<Check> checks(const Rounds& rounds) const override {
    // Fig. 6's star pattern: the first 20 picks land in the outer 15%
    // band of the pool's bounding box more often than the pool does.
    std::size_t earlyEdge = 0, early = 0, poolEdge = 0, pool = 0;
    for (const RoundResult* round : rounds) {
      for (const auto& r : round->results) {
        double lo[2] = {1e300, 1e300}, hi[2] = {-1e300, -1e300};
        for (std::size_t row : r.partition.active)
          for (int j = 0; j < 2; ++j) {
            lo[j] = std::min(lo[j], problem_.x(row, j));
            hi[j] = std::max(hi[j], problem_.x(row, j));
          }
        const auto edge = [&](std::size_t row) {
          for (int j = 0; j < 2; ++j) {
            const double v = problem_.x(row, j), w = hi[j] - lo[j];
            if (v - lo[j] < 0.15 * w || hi[j] - v < 0.15 * w) return true;
          }
          return false;
        };
        const std::size_t k = std::min<std::size_t>(20, r.history.size());
        for (std::size_t i = 0; i < k; ++i)
          earlyEdge += edge(r.history[i].chosenRow);
        early += k;
        for (std::size_t row : r.partition.active) poolEdge += edge(row);
        pool += r.partition.active.size();
      }
    }
    const auto share = [](std::size_t part, std::size_t whole) {
      return static_cast<double>(part) /
             std::max(static_cast<double>(whole), 1.0);
    };
    const double earlyFrac = share(earlyEdge, early);
    const double baseRate = share(poolEdge, pool);
    return {
        makeCheck("shape.early_picks_on_edges", earlyFrac > baseRate,
                  str(100 * earlyFrac) + "% of first 20 picks vs " +
                      str(100 * baseRate) + "% pool base rate"),
        exhaustedCheck(rounds),
        poolCacheAppendCheck(rounds, false),
        noAsyncCheck(rounds),
    };
  }

  const gp::GaussianProcess& gpPrototype() const override { return gp_; }
  const al::RegressionProblem& problem() const override { return problem_; }

 protected:
  void runCampaigns(std::uint64_t seed, RoundResult& round) override {
    al::ActiveLearner learner(
        problem_, gp_,
        round.recorder->probe(std::make_unique<al::VarianceReduction>()),
        config());
    const auto partition =
        drawPartition(problem_.size(), mixSeed(seed, 6, round.index));
    Rng rng(mixSeed(seed, 60, round.index));
    timedCall(round, [&] {
      round.results.push_back(learner.runWithPartition(partition, rng));
    });
  }

 private:
  static al::AlConfig config() {
    al::AlConfig cfg;
    cfg.maxIterations = -1;
    cfg.refitEvery = 1;
    return cfg;
  }

  al::RegressionProblem problem_;
  gp::GaussianProcess gp_ = makeGp(2, 1e-1, 1);
};

// ------------------------------------------------------------ fig8-paired

/// Fig. 8: VarianceReduction and CostEfficiency on identical partitions
/// through runPairedBatch, hyperparameters refit every third iteration.
/// One runPairedBatch call of kReplicates paired replicates per round —
/// as many replicates as the pool has threads, so campaign-level
/// parallelism has room to show.
class Fig8Paired final : public Workload {
 public:
  static constexpr int kReplicates = 4;

  std::string name() const override { return "fig8-paired"; }

  void buildProblem(const cluster::GeneratedDataset& ds) override {
    problem_ = al::makeProblem(poissonSubset(ds.performance, 32.0),
                               {"GlobalSize", "FreqGHz"}, "RuntimeS",
                               "CostCoreS", {"GlobalSize", "RuntimeS"});
  }

  std::vector<Check> checks(const Rounds& rounds) const override {
    // The paired design holds within each round (VR then CE on the same
    // partition), so the rounds pool into one larger paired batch.
    al::BatchResult vr, ce;
    for (const RoundResult* round : rounds)
      for (std::size_t i = 0; i < round->results.size(); ++i)
        (i % 2 == 0 ? vr : ce).runs.push_back(round->results[i]);
    const auto vrCost = vr.meanSeries(&al::IterationRecord::cumulativeCost);
    const auto ceCost = ce.meanSeries(&al::IterationRecord::cumulativeCost);
    const std::size_t mid = vrCost.size() / 2;
    const auto report = al::compareTradeoffs(al::aggregateTradeoff(vr, 200),
                                             al::aggregateTradeoff(ce, 200));
    return {
        makeCheck("shape.ce_cheaper_at_half_way", ceCost[mid] < vrCost[mid],
                  "mean cumulative cost at iteration " + std::to_string(mid) +
                      ": VR " + str(vrCost[mid]) + ", CE " + str(ceCost[mid])),
        makeCheck("shape.tradeoff_crossover_found", report.found,
                  report.found ? "C = " + str(report.crossoverCost) +
                                     " core-seconds"
                               : "no crossover"),
        exhaustedCheck(rounds),
        poolCacheAppendCheck(rounds, true),
        noAsyncCheck(rounds),
    };
  }

  const gp::GaussianProcess& gpPrototype() const override { return gp_; }
  const al::RegressionProblem& problem() const override { return problem_; }

 protected:
  void runCampaigns(std::uint64_t seed, RoundResult& round) override {
    std::vector<al::BatchResult> out;
    const al::BatchConfig cfg = config(mixSeed(seed, 8, round.index));
    const auto strategies = factories(round.recorder.get());
    timedCall(round, [&] {
      out = al::runPairedBatch(problem_, gp_, strategies, cfg);
    });
    // Campaign order of the factory calls: replicate-major, VR then CE.
    for (int r = 0; r < kReplicates; ++r)
      for (auto& batch : out) round.results.push_back(std::move(batch.runs[r]));
  }

 private:
  static al::BatchConfig config(std::uint64_t seed) {
    al::BatchConfig cfg;
    cfg.replicates = kReplicates;
    cfg.seed = seed;
    cfg.al.maxIterations = -1;
    cfg.al.refitEvery = 3;
    return cfg;
  }

  static std::vector<al::StrategyFactory> factories(Recorder* rec) {
    std::vector<al::StrategyFactory> f{
        [] { return std::make_unique<al::VarianceReduction>(); },
        [] { return std::make_unique<al::CostEfficiency>(); }};
    if (rec != nullptr)
      for (auto& g : f) g = rec->wrap(std::move(g));
    return f;
  }

  al::RegressionProblem problem_;
  gp::GaussianProcess gp_ = makeGp(2, 1e-1, 1, 30);
};

// -------------------------------------------------------- fullspace-async

/// A simulated cluster backend: every attempt sleeps a seed-drawn latency,
/// and a seed-drawn, stratified share of picks fails its first attempt(s).
/// Failures are keyed on the pick's position in the campaign (from the
/// strategy probe) and the attempt number, so the pattern is the same at
/// any dispatch width and in every repeat.
class FlakyBackend {
 public:
  FlakyBackend(const al::RegressionProblem& problem, std::uint64_t seed,
               std::uint64_t campaign, const CampaignLog& log,
               double latencyMs)
      : problem_(problem),
        seed_(seed),
        campaign_(campaign),
        log_(log),
        latencyMs_(latencyMs) {}

  /// Leading attempts of pick k that fail: one in every 5 picks fails
  /// once, one in 25 twice, one in 75 every time (it ends quarantined).
  int failuresOf(std::size_t k) const {
    const auto slot = [&](std::size_t period, std::uint64_t stream) {
      const double u =
          unitHash(mixSeed(seed_, stream, campaign_), period, k / period);
      return k % period ==
             static_cast<std::size_t>(u * static_cast<double>(period));
    };
    if (slot(75, 3)) return 1000;
    if (slot(25, 2)) return 2;
    if (slot(5, 1)) return 1;
    return 0;
  }

  Measurement measure(std::size_t row) {
    const std::size_t k = log_.pickIndex(row);
    int attempt = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      attempt = attemptsOfRow_[row]++;
    }
    const double ms =
        latencyMs_ * (0.5 + unitHash(mixSeed(seed_, 4, campaign_), 0, k));
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    ++attempts;
    if (attempt < failuresOf(k)) {
      ++failures;
      return Measurement::failed(0.5 * problem_.cost[row]);
    }
    return Measurement::ok(problem_.y[row], problem_.cost[row]);
  }

  std::atomic<std::int64_t> attempts{0};
  std::atomic<std::int64_t> failures{0};

 private:
  const al::RegressionProblem& problem_;
  std::uint64_t seed_;
  std::uint64_t campaign_;
  const CampaignLog& log_;
  double latencyMs_;
  std::mutex mu_;
  std::map<std::size_t, int> attemptsOfRow_;
};

/// A 3-D VarianceReduction campaign over all poisson1 jobs, measured
/// through a fallible, slow oracle with `width` measurements in flight.
/// One campaign per round. VR rather than CostEfficiency: CE's cheap-first
/// picks leave the expensive corner unexplored, and its final-model error
/// then ranges 0.3–1.1 over partitions, too wide for a bounded metric; VR
/// stays within ±6%. CE is exercised by fig8-paired.
class FullspaceAsync final : public Workload {
 public:
  static constexpr int kIterations = 150;
  /// Mean oracle latency, close to one selection step of this campaign.
  static constexpr double kLatencyMs = 20.0;

  explicit FullspaceAsync(int width) : width_(width) {}

  std::string name() const override { return "fullspace-async"; }
  int width() const override { return width_; }

  void buildProblem(const cluster::GeneratedDataset& ds) override {
    problem_ = al::makeProblem(poissonSubset(ds.performance, 0.0),
                               {"GlobalSize", "NP", "FreqGHz"}, "RuntimeS",
                               "CostCoreS", {"GlobalSize", "RuntimeS"});
  }

  std::vector<Check> checks(const Rounds& rounds) const override {
    bool finite = true, reachedIterations = true;
    std::size_t failedInHistory = 0, committedValues = 0, decisions = 0;
    std::int64_t attempts = 0, failures = 0;
    for (const RoundResult* round : rounds) {
      committedValues += round->committed();
      decisions += round->decisions();
      attempts += round->oracleAttempts;
      failures += round->oracleFailures;
    }
    for (const RoundResult* round : rounds) {
      for (const auto& r : round->results) {
        for (double y : r.checkpoint.trainY)
          finite = finite && std::isfinite(y);
        for (const auto& rec : r.history)
          failedInHistory += static_cast<std::size_t>(rec.failedAttempts);
        reachedIterations = reachedIterations &&
                            r.stopReason == al::StopReason::MaxIterations &&
                            r.history.size() == kIterations;
      }
    }
    const std::uint64_t committed = totalCount(rounds, "exec.async.committed");
    const auto ledger =
        static_cast<std::int64_t>(failedInHistory + committedValues);
    return {
        makeCheck("shape.committed_values_finite", finite,
                  std::to_string(committedValues) + " committed values"),
        makeCheck("campaigns_reach_iterations", reachedIterations,
                  std::to_string(kIterations) + " iterations each"),
        makeCheck("coverage.async_committed_equals_decisions",
                  committed == decisions && decisions > 0,
                  "exec.async.committed " + std::to_string(committed) +
                      ", decisions " + std::to_string(decisions)),
        makeCheck("coverage.failed_attempts_nonzero", failures > 0,
                  std::to_string(failures) + " of " +
                      std::to_string(attempts) + " attempts failed"),
        makeCheck("ledger_matches_oracle", ledger == attempts,
                  "history " + std::to_string(ledger) + ", oracle " +
                      std::to_string(attempts)),
    };
  }

  const gp::GaussianProcess& gpPrototype() const override { return gp_; }
  const al::RegressionProblem& problem() const override { return problem_; }

 protected:
  void runCampaigns(std::uint64_t seed, RoundResult& round) override {
    al::ActiveLearner learner(
        problem_, gp_,
        round.recorder->probe(std::make_unique<al::VarianceReduction>()),
        config());
    FlakyBackend backend(problem_, seed, round.index, round.recorder->last(),
                         kLatencyMs);
    al::Oracle oracle = [&backend](std::size_t row) {
      return backend.measure(row);
    };
    if (round.timed) oracle = timedOracle(oracle, *round.oracleTiming);
    const auto partition =
        drawPartition(problem_.size(), mixSeed(seed, 3, round.index));
    Rng rng(mixSeed(seed, 30, round.index));
    timedCall(round, [&] {
      round.results.push_back(learner.runFallibleWithPartition(
          oracle, al::RetryPolicy{}, partition, rng));
    });
    round.oracleAttempts = backend.attempts;
    round.oracleFailures = backend.failures;
  }

 private:
  al::AlConfig config() const {
    al::AlConfig cfg;
    cfg.maxIterations = kIterations;
    cfg.refitEvery = 4;
    cfg.execution.maxInFlight = width_;
    return cfg;
  }

  int width_;
  al::RegressionProblem problem_;
  gp::GaussianProcess gp_ = makeGp(3, 1e-1, 1);
};

}  // namespace

std::vector<std::string> workloadNames() {
  return {"fig6-vr", "fig8-paired", "fullspace-async"};
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       int dispatchWidth) {
  if (name == "fig6-vr") return std::make_unique<Fig6Vr>();
  if (name == "fig8-paired") return std::make_unique<Fig8Paired>();
  if (name == "fullspace-async")
    return std::make_unique<FullspaceAsync>(dispatchWidth);
  return nullptr;
}

cluster::GeneratedDataset generateDataset() {
  return cluster::DatasetGenerator().generate();
}

}  // namespace albench
