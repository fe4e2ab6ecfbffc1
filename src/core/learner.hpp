#pragma once

/// \file learner.hpp
/// The active-learning loop (paper Sec. IV–V): partition the job database
/// into Initial / Active / Test, seed a GP with the Initial set, then
/// iteratively let the strategy pick experiments from the Active pool,
/// retraining the GP and tracking the paper's three progress metrics —
/// σ_f(x) at the pick, AMSD over the remaining pool, and Test-set RMSE —
/// plus cumulative experiment cost.
///
/// One loop serves every campaign. Each pick is measured through the
/// dispatch engine (core/dispatch.hpp): by an Oracle (core/oracle.hpp)
/// that may fail or censor it (executor.hpp), or, on the classic
/// table-driven path, by the problem's own y column. Either path can be
/// checkpointed and resumed bit-for-bit (checkpoint.hpp).
///
/// AlConfig::execution.maxInFlight is the pipeline width. At 1 (the
/// default) each pick commits before the next is selected. At k > 1 up
/// to k measurements run concurrently while selection continues against
/// a constant-liar fantasy posterior over the pending picks; results are
/// committed in deterministic dispatch order.

#include <limits>

#include "core/executor.hpp"
#include "core/oracle.hpp"
#include "core/strategy.hpp"
#include "data/partition.hpp"

namespace alperf::al {

struct AlConfig {
  /// Partitioning (paper: Initial = 1 job, Active:Test ≈ 8:2).
  std::size_t nInitial = 1;
  double activeFraction = 0.8;

  /// Stop conditions; any triggers. maxIterations < 0 exhausts the pool.
  int maxIterations = -1;
  double costBudget = std::numeric_limits<double>::infinity();
  /// AMSD convergence: stop when over the last `amsdWindow` iterations the
  /// relative AMSD change stays below `amsdRelTol` (0 disables).
  int amsdWindow = 0;
  double amsdRelTol = 0.0;

  /// Refit hyperparameters every k-th iteration (1 = every iteration, the
  /// paper's behaviour); between refits only the posterior is updated.
  int refitEvery = 1;

  /// Between hyperparameter refits (refitEvery > 1, or after a fallback to
  /// the last good θ), condition the existing posterior on the new points
  /// via an O(n²) Cholesky extension instead of an O(n³) refactorization.
  /// Set false to force a full refactorization every iteration — the
  /// reference the incremental-vs-full golden test compares against (they
  /// agree to ~1e-10, not bit-for-bit, so flipping this changes traces at
  /// float precision when refitEvery > 1).
  bool incrementalPosterior = true;

  /// Paper Sec. V-B4 proposal: replace the fixed σ_n lower bound with the
  /// dynamic schedule σ_n² ≥ 1/√N (N = training-set size).
  bool dynamicNoiseBound = false;

  /// Batch mode: pick this many experiments per iteration (1 = the
  /// paper's greedy one-at-a-time loop).
  std::size_t batchSize = 1;

  /// Pool posterior cache (gp/pool_predict_cache.hpp): pin the candidate
  /// pool once per campaign and reuse K_cross / V = L⁻¹·K_cross across
  /// iterations — pool scoring on the grow-only incremental path drops
  /// from O(n²·m) to O(n·m) per iteration. Served predictions are bitwise
  /// identical to direct prediction, so AL traces do not depend on this
  /// flag (the `gp.poolcache.*` counters do). Requires the GP's batch
  /// predict engine; falls back to direct prediction when it cannot serve.
  bool poolPredictCache = true;

  /// Numerical self-healing knobs (docs/ROBUSTNESS.md). When a refit
  /// diverges, the loop walks a degradation ladder: retry the fit with
  /// the jitter cap raised to `recoveryJitterScale`, then refit the
  /// posterior at the last good hyperparameters, then fall back to a
  /// prior-only posterior. An iteration that ends prior-only is
  /// *degraded*; more than `maxConsecutiveDegraded` degraded iterations
  /// in a row stop the campaign with StopReason::ModelUnhealthy.
  int maxConsecutiveDegraded = 2;
  double recoveryJitterScale = 1e-2;
  /// Wall-clock watchdog: stop with StopReason::WatchdogExpired once the
  /// loop has run this many seconds (checked at each iteration boundary;
  /// infinity disables). A safety net for unattended campaigns, not a
  /// precise budget — the iteration in flight always completes.
  double wallClockBudgetSec = std::numeric_limits<double>::infinity();

  /// Execution engine configuration: the RetryPolicy state machine plus
  /// the dispatch width (executor.hpp). maxInFlight = 1 (default) commits
  /// each pick before the next is selected; k > 1 runs k measurements
  /// concurrently with pending-point fantasy selection (core/dispatch.hpp;
  /// requires batchSize == 1). The RetryPolicy arguments of
  /// runFallible/resumeFallible predate this field and override
  /// `execution.retry` when used.
  ExecutionConfig execution;

  /// When non-empty, the loop arms the structured tracer (common/trace.hpp)
  /// for the duration of the campaign and writes a Chrome trace-event JSON
  /// timeline here on exit — fit/score/select/executor spans, per-thread
  /// lanes. No-op if the tracer is already armed (e.g. via ALPERF_TRACE).
  /// Tracing never affects results: AL output is bit-identical either way.
  std::string tracePath;
};

enum class StopReason {
  PoolExhausted,
  MaxIterations,
  Budget,
  AmsdConverged,
  /// The pool was drained and at least one point ended quarantined: the
  /// campaign ran out of *measurable* experiments, not experiments.
  OracleExhausted,
  /// A hyperparameter refit diverged and even the last-good-θ fallback
  /// could not produce a finite posterior; the trace up to that point is
  /// preserved. Since the prior-only degradation rung was added this is
  /// only reachable where no prior-only fallback exists (the continuous
  /// loop's seed fit).
  FitFailed,
  /// More than AlConfig::maxConsecutiveDegraded consecutive iterations
  /// ended on the prior-only degradation rung: the model is persistently
  /// unhealthy and further experiments would be chosen blind.
  ModelUnhealthy,
  /// The wall-clock watchdog (AlConfig::wallClockBudgetSec) expired.
  WatchdogExpired,
};

/// One row of the learning trace (per iteration; in batch mode the pick
/// fields describe the first experiment of the batch).
struct IterationRecord {
  int iteration = 0;
  std::size_t chosenRow = 0;   ///< problem row index of the pick
  double sigmaAtPick = 0.0;    ///< predictive SD at the pick
  double muAtPick = 0.0;       ///< predictive mean at the pick
  double amsd = 0.0;           ///< mean predictive SD over remaining pool
  double rmse = 0.0;           ///< test-set RMSE (paper eq. 2)
  double pickCost = 0.0;       ///< linear cost of the consumed experiment(s)
  double cumulativeCost = 0.0;
  double noiseVariance = 0.0;  ///< fitted σ_n² this iteration
  double lml = 0.0;
  /// Fault accounting (always 0 on the infallible path): oracle attempts
  /// lost to failures this iteration and the cost they burned (including
  /// retry-backoff surcharges), both already folded into cumulativeCost.
  double failedAttempts = 0.0;
  double wastedCost = 0.0;
  /// 1.0 when the trained observation is a walltime-censored lower bound.
  double censored = 0.0;
};

/// Complete mid-campaign state of the AL loop — everything needed to
/// continue a run bit-for-bit after a process restart. Produced at every
/// loop exit (AlResult::checkpoint) and serializable via checkpoint.hpp.
struct Checkpoint {
  data::TriPartition partition;        ///< the run's original partition
  std::vector<std::size_t> train;      ///< consumed rows, in training order
  la::Vector trainY;                   ///< measured responses for `train`
  std::vector<std::size_t> pool;       ///< remaining selectable rows
  std::vector<std::size_t> quarantined;///< rows excluded after retry exhaustion
  std::vector<IterationRecord> history;
  double cumulativeCost = 0.0;
  int iteration = 0;
  std::vector<double> gpTheta;         ///< GP thetaFull() at the last fit
  /// Training-set size at the last *full* posterior factorization. Lets
  /// resume rebuild the incremental-Cholesky chain exactly: refit the
  /// first trainAtLastFit points with the checkpointed θ, then replay the
  /// tail as extensions — reproducing an uninterrupted run bit-for-bit
  /// even when incrementalPosterior is active. 0 = no full fit recorded
  /// (fresh runs, or checkpoints from before this field existed).
  std::size_t trainAtLastFit = 0;
  stats::Rng::State rngState{};        ///< engine state at loop exit
  bool hasRngState = false;
};

struct AlResult {
  std::vector<IterationRecord> history;
  data::TriPartition partition;
  StopReason stopReason = StopReason::PoolExhausted;
  gp::GaussianProcess finalGp;  ///< fitted on everything consumed

  /// Loop state at the stop point; feed to ActiveLearner::resume (after a
  /// round-trip through save/loadCheckpoint if the process died) to
  /// continue the campaign.
  Checkpoint checkpoint;
  /// Refits that fell back to the last good hyperparameters because the
  /// fresh fit diverged (non-finite LML or failed Cholesky).
  int fitFallbacks = 0;

  /// Rows whose measurements kept failing until retries were exhausted.
  const std::vector<std::size_t>& quarantined() const {
    return checkpoint.quarantined;
  }

  /// Convenience extraction of one metric across iterations.
  std::vector<double> series(double IterationRecord::* field) const;
};

/// Human-readable name of a stop reason.
std::string toString(StopReason reason);

/// Renders the learning trace as a Table (one row per iteration, columns
/// Iteration / ChosenRow / SigmaAtPick / MuAtPick / AMSD / RMSE /
/// PickCost / CumulativeCost / NoiseVariance / LML / FailedAttempts /
/// WastedCost / Censored) — ready for data::writeCsv so traces can be
/// archived and plotted externally.
data::Table historyToTable(std::span<const IterationRecord> history);
data::Table historyToTable(const AlResult& result);

/// Inverse of historyToTable (checkpoint loading); missing fault columns
/// are tolerated for traces archived by older versions. Iteration and
/// ChosenRow cells that are not non-negative integers (NaN, negative,
/// fractional) throw std::invalid_argument naming `source` (the file the
/// table came from), the column and the 1-based row.
std::vector<IterationRecord> historyFromTable(
    const data::Table& table, const std::string& source = "historyFromTable");

class ActiveLearner {
 public:
  /// `gpPrototype` supplies the kernel/config; it is copied per run.
  ActiveLearner(RegressionProblem problem, gp::GaussianProcess gpPrototype,
                StrategyPtr strategy, AlConfig config = {});

  /// Random partition + full AL loop.
  AlResult run(stats::Rng& rng) const;

  /// AL loop on a caller-supplied partition (for paired comparisons of
  /// strategies on identical partitions, as in Fig. 8).
  AlResult runWithPartition(const data::TriPartition& partition,
                            stats::Rng& rng) const;

  /// Fault-tolerant loop: every pick is measured through `oracle` under
  /// `policy` (which overrides config().execution.retry). Failed attempts
  /// charge their burned cost to the budget; points whose retries are
  /// exhausted are quarantined and never picked again; censored
  /// measurements train on their lower bound. The oracle may be row-based
  /// or point-based (the picked row's coordinates are passed).
  AlResult runFallible(const Oracle& oracle, const RetryPolicy& policy,
                       stats::Rng& rng) const;
  AlResult runFallibleWithPartition(const Oracle& oracle,
                                    const RetryPolicy& policy,
                                    const data::TriPartition& partition,
                                    stats::Rng& rng) const;

  /// Continues a checkpointed campaign bit-for-bit: the concatenation of
  /// the checkpointed history and the resumed run's new records equals
  /// the trace of an uninterrupted run with the same seed. The
  /// checkpoint's RNG state overwrites `rng`. Pass the oracle/policy pair
  /// for campaigns started with runFallible.
  AlResult resume(const Checkpoint& checkpoint, stats::Rng& rng) const;
  AlResult resumeFallible(const Checkpoint& checkpoint, const Oracle& oracle,
                          const RetryPolicy& policy, stats::Rng& rng) const;

  const RegressionProblem& problem() const { return problem_; }
  const AlConfig& config() const { return config_; }

 private:
  Checkpoint initialState(const data::TriPartition& partition) const;
  void validateCheckpoint(const Checkpoint& cp) const;
  /// The campaign loop: bounded in-flight dispatch with constant-liar
  /// fantasy selection over pending picks; commits (and hence records,
  /// training-set growth and RNG use) happen in deterministic dispatch
  /// order. On any stop the pipeline is drained, so checkpoints never
  /// carry in-flight state. A null oracle runs the table-driven path.
  AlResult runLoop(Checkpoint state, const Oracle* oracle,
                   const RetryPolicy* policy, stats::Rng& rng) const;

  RegressionProblem problem_;
  gp::GaussianProcess gpPrototype_;
  StrategyPtr strategy_;
  AlConfig config_;
};

}  // namespace alperf::al
