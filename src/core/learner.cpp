#include "core/learner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>

#include "common/error.hpp"
#include "core/dispatch.hpp"
#include "common/fault_inject.hpp"
#include "common/health.hpp"
#include "common/perf_stats.hpp"
#include "common/trace.hpp"
#include "stats/descriptive.hpp"

namespace alperf::al {

std::vector<double> AlResult::series(double IterationRecord::* field) const {
  std::vector<double> v;
  v.reserve(history.size());
  for (const auto& rec : history) v.push_back(rec.*field);
  return v;
}

std::string toString(StopReason reason) {
  switch (reason) {
    case StopReason::PoolExhausted:
      return "pool_exhausted";
    case StopReason::MaxIterations:
      return "max_iterations";
    case StopReason::Budget:
      return "budget";
    case StopReason::AmsdConverged:
      return "amsd_converged";
    case StopReason::OracleExhausted:
      return "oracle_exhausted";
    case StopReason::FitFailed:
      return "fit_failed";
    case StopReason::ModelUnhealthy:
      return "model_unhealthy";
    case StopReason::WatchdogExpired:
      return "watchdog_expired";
  }
  throw std::invalid_argument("toString: unknown StopReason");
}

ActiveLearner::ActiveLearner(RegressionProblem problem,
                             gp::GaussianProcess gpPrototype,
                             StrategyPtr strategy, AlConfig config)
    : problem_(std::move(problem)),
      gpPrototype_(std::move(gpPrototype)),
      strategy_(std::move(strategy)),
      config_(config) {
  problem_.validate();
  requireArg(strategy_ != nullptr, "ActiveLearner: null strategy");
  requireArg(config_.refitEvery >= 1, "ActiveLearner: refitEvery must be >= 1");
  requireArg(config_.batchSize >= 1, "ActiveLearner: batchSize must be >= 1");
  requireArg(config_.amsdWindow >= 0, "ActiveLearner: amsdWindow must be >= 0");
}

AlResult ActiveLearner::run(stats::Rng& rng) const {
  const auto partition = data::triPartition(
      problem_.size(), config_.nInitial, config_.activeFraction, rng);
  return runWithPartition(partition, rng);
}

AlResult ActiveLearner::runWithPartition(const data::TriPartition& partition,
                                         stats::Rng& rng) const {
  return runLoop(initialState(partition), nullptr, nullptr, rng);
}

AlResult ActiveLearner::runFallible(const Oracle& oracle,
                                    const RetryPolicy& policy,
                                    stats::Rng& rng) const {
  const auto partition = data::triPartition(
      problem_.size(), config_.nInitial, config_.activeFraction, rng);
  return runFallibleWithPartition(oracle, policy, partition, rng);
}

AlResult ActiveLearner::runFallibleWithPartition(
    const Oracle& oracle, const RetryPolicy& policy,
    const data::TriPartition& partition, stats::Rng& rng) const {
  requireArg(static_cast<bool>(oracle), "runFallible: null oracle");
  policy.validate();
  return runLoop(initialState(partition), &oracle, &policy, rng);
}

AlResult ActiveLearner::resume(const Checkpoint& checkpoint,
                               stats::Rng& rng) const {
  validateCheckpoint(checkpoint);
  return runLoop(checkpoint, nullptr, nullptr, rng);
}

AlResult ActiveLearner::resumeFallible(const Checkpoint& checkpoint,
                                       const Oracle& oracle,
                                       const RetryPolicy& policy,
                                       stats::Rng& rng) const {
  validateCheckpoint(checkpoint);
  requireArg(static_cast<bool>(oracle), "resumeFallible: null oracle");
  policy.validate();
  return runLoop(checkpoint, &oracle, &policy, rng);
}

Checkpoint ActiveLearner::initialState(
    const data::TriPartition& partition) const {
  Checkpoint state;
  state.partition = partition;
  state.train = partition.initial;
  state.trainY.reserve(state.train.size());
  for (std::size_t row : state.train) {
    requireArg(row < problem_.size(), "ActiveLearner: partition row range");
    state.trainY.push_back(problem_.y[row]);
  }
  state.pool = partition.active;
  return state;
}

void ActiveLearner::validateCheckpoint(const Checkpoint& cp) const {
  requireArg(cp.hasRngState, "resume: checkpoint has no RNG state");
  requireArg(cp.trainY.size() == cp.train.size(),
             "resume: train/trainY size mismatch");
  requireArg(!cp.train.empty(), "resume: empty training set");
  const auto inRange = [this](const std::vector<std::size_t>& rows) {
    return std::all_of(rows.begin(), rows.end(), [this](std::size_t r) {
      return r < problem_.size();
    });
  };
  requireArg(inRange(cp.train) && inRange(cp.pool) && inRange(cp.quarantined),
             "resume: checkpoint row index out of range for this problem");
  requireArg(cp.iteration >= 0 &&
                 cp.history.size() == static_cast<std::size_t>(cp.iteration),
             "resume: iteration count disagrees with history length");
  requireArg(cp.gpTheta.empty() ||
                 cp.gpTheta.size() == gpPrototype_.thetaFull().size(),
             "resume: GP hyperparameter count mismatch");
  requireArg(cp.trainAtLastFit <= cp.train.size(),
             "resume: trainAtLastFit exceeds training-set size");
}

namespace {

/// The campaign loop's model maintenance: training-set materialization,
/// the four-rung fit degradation ladder (docs/ROBUSTNESS.md), the
/// incremental-posterior chain bookkeeping, and the resume-time chain
/// rebuild.
struct FitEngine {
  const RegressionProblem& problem;
  const AlConfig& config;
  Checkpoint& state;
  gp::GaussianProcess& gp;
  stats::Rng& rng;
  int& fitFallbacks;

  /// Hyperparameters of the last healthy fit (rungs 1–3).
  std::vector<double> lastGoodTheta;
  const double baseJitterScale;
  /// Training-set size at the last full posterior factorization —
  /// checkpointed so resume can rebuild the same incremental chain.
  std::size_t fullFitTrainCount = 0;
  /// True while gp holds a factorization of a prefix of state.train at
  /// the current hyperparameters, so new points can be appended via
  /// Cholesky extension.
  bool chainValid = false;

  FitEngine(const RegressionProblem& problemIn, const AlConfig& configIn,
            Checkpoint& stateIn, gp::GaussianProcess& gpIn,
            stats::Rng& rngIn, int& fitFallbacksIn, double baseJitterIn)
      : problem(problemIn),
        config(configIn),
        state(stateIn),
        gp(gpIn),
        rng(rngIn),
        fitFallbacks(fitFallbacksIn),
        lastGoodTheta(gpIn.thetaFull()),
        baseJitterScale(baseJitterIn) {}

  void buildTrain(la::Matrix& x, la::Vector& y) const {
    x = la::Matrix(state.train.size(), problem.dim());
    for (std::size_t i = 0; i < state.train.size(); ++i) {
      const auto row = problem.x.row(state.train[i]);
      std::copy(row.begin(), row.end(), x.row(i).begin());
    }
    y = state.trainY;
  }

  // Attempts a (re)fit, walking the degradation ladder on divergence
  // (docs/ROBUSTNESS.md): (1) the requested fit; (2) the same fit with
  // the Cholesky jitter cap raised to recoveryJitterScale; (3) a
  // posterior-only refit at the last good hyperparameters; (4) a
  // prior-only posterior, which cannot fail. Returns true when the model
  // ended with a genuine GP posterior (rungs 1–3) and false when it is
  // degraded to the prior — the loop's unhealthy-model stop counts those.
  // Posterior-only updates (optimize false) extend the existing
  // factorization when incrementalPosterior allows; anything else is a
  // full refactorization.
  //
  // The GP's pairwise-distance cache (gp/distance_cache.hpp) lives across
  // all of these paths untouched by this layer: buildTrain reproduces the
  // previous rows bit-for-bit and only appends, so each refit takes the
  // cache's O(k·n·d) append path (gp.distcache.append), and
  // gp.addObservation keeps it warm on the incremental path too. Rolling
  // back hyperparameters never invalidates it — distances don't depend on
  // theta.
  bool fitWithFallback(bool optimize) {
    ScopedTimer timer("al.fit");
    trace::Span span("al.fit");
    span.note("n", state.train.size()).note("optimize", optimize);
    if (!optimize && config.incrementalPosterior && chainValid &&
        gp.fitted() && gp.numTrainPoints() <= state.train.size()) {
      bool ok = true;
      try {
        for (std::size_t i = gp.numTrainPoints(); i < state.train.size(); ++i)
          gp.addObservation(problem.x.row(state.train[i]), state.trainY[i]);
        ok = std::isfinite(gp.logMarginalLikelihood());
      } catch (const NumericalError&) {
        ok = false;
      }
      if (ok) {
        PerfRegistry::instance().increment("al.fit.incremental");
        span.note("path", "incremental");
        return true;
      }
      chainValid = false;  // degraded extension: refactorize from scratch
    }
    la::Matrix trainX;
    la::Vector trainY;
    buildTrain(trainX, trainY);
    // Each rung fits a *copy* of the training set so the later rungs (and
    // the prior-only terminal rung) still have the data to fall back on.
    const auto tryFit = [&](bool opt) {
      gp.config().optimize = opt;
      try {
        gp.fit(la::Matrix(trainX), la::Vector(trainY), rng);
        return std::isfinite(gp.logMarginalLikelihood());
      } catch (const NumericalError&) {
        return false;
      }
    };
    gp.config().jitterScaleMax = baseJitterScale;
    bool ok = tryFit(optimize);
    if (!ok) {
      // Rung 2: identical fit, jitter cap escalated.
      HealthMonitor::instance().record("fit.retry",
                                       "refit with escalated jitter cap");
      gp.config().jitterScaleMax =
          std::max(baseJitterScale, config.recoveryJitterScale);
      ok = tryFit(optimize);
    }
    if (!ok) {
      // Rung 3: posterior only, at the hyperparameters of the last
      // healthy fit (keeps the escalated jitter cap).
      gp.setThetaFull(lastGoodTheta);
      ok = tryFit(false);
      if (ok) {
        ++fitFallbacks;
        HealthMonitor::instance().record(
            "fit.fallback.theta", "posterior refit at last good theta");
      }
    }
    gp.config().jitterScaleMax = baseJitterScale;
    if (ok) {
      lastGoodTheta = gp.thetaFull();
      chainValid = true;
      fullFitTrainCount = state.train.size();
      PerfRegistry::instance().increment("al.fit.full");
      span.note("path", "full");
      return true;
    }
    // Rung 4: prior-only posterior — never fails, but the model is
    // degraded until a later refit recovers.
    gp.setThetaFull(lastGoodTheta);
    gp.fitPriorOnly(std::move(trainX), std::move(trainY));
    ++fitFallbacks;
    HealthMonitor::instance().record("fit.fallback.prior",
                                     "prior-only posterior installed");
    span.note("path", "prior");
    chainValid = false;
    return false;
  }

  // Resuming a campaign whose posterior was maintained incrementally:
  // rebuild the exact factorization chain the uninterrupted run carried —
  // a full factorization of the first trainAtLastFit points at the
  // checkpointed θ, extended point-by-point with the tail. Without this a
  // resumed run would refactorize the whole set from scratch and drift
  // from the original trace at float precision. Consumes no RNG
  // (optimization stays off).
  void rebuildResumeChain() {
    if (!config.incrementalPosterior || state.trainAtLastFit == 0 ||
        state.gpTheta.empty())
      return;
    try {
      la::Matrix px(state.trainAtLastFit, problem.dim());
      la::Vector py(state.trainAtLastFit);
      for (std::size_t i = 0; i < state.trainAtLastFit; ++i) {
        const auto row = problem.x.row(state.train[i]);
        std::copy(row.begin(), row.end(), px.row(i).begin());
        py[i] = state.trainY[i];
      }
      gp.config().optimize = false;
      gp.fit(std::move(px), std::move(py), rng);
      for (std::size_t i = state.trainAtLastFit; i < state.train.size(); ++i)
        gp.addObservation(problem.x.row(state.train[i]), state.trainY[i]);
      if (std::isfinite(gp.logMarginalLikelihood())) {
        chainValid = true;
        fullFitTrainCount = state.trainAtLastFit;
      }
    } catch (const NumericalError&) {
      chainValid = false;  // the loop's full-fit path will recover
    }
  }
};

}  // namespace

AlResult ActiveLearner::runLoop(Checkpoint state, const Oracle* oracle,
                                const RetryPolicy* policy,
                                stats::Rng& rng) const {
  ExecutionConfig exec = config_.execution;
  if (policy != nullptr) exec.retry = *policy;
  exec.validate();
  requireArg(exec.maxInFlight == 1 || config_.batchSize == 1,
             "ActiveLearner: maxInFlight > 1 requires batchSize == 1 "
             "(async dispatch subsumes batch selection)");

  if (state.hasRngState) rng.restoreState(state.rngState);

  // Campaign-scoped tracing: arms on entry and exports the Chrome trace on
  // exit when config_.tracePath is set; otherwise (and when the tracer is
  // already armed ambiently) a no-op.
  trace::CampaignTraceScope traceScope(config_.tracePath);

  AlResult result{.history = {},
                  .partition = state.partition,
                  .stopReason = StopReason::PoolExhausted,
                  .finalGp = gpPrototype_,
                  .checkpoint = {},
                  .fitFallbacks = 0};

  gp::GaussianProcess gp = gpPrototype_;
  if (!state.gpTheta.empty()) gp.setThetaFull(state.gpTheta);
  const double baseNoiseLo = gpPrototype_.config().noise.lo;

  FitEngine engine(problem_, config_, state, gp, rng, result.fitFallbacks,
                   gpPrototype_.config().jitterScaleMax);
  engine.rebuildResumeChain();

  // Every campaign measures through the dispatcher. Table-driven campaigns
  // use the problem database as an always-usable oracle, so commit
  // handling is uniform (the measurement carries the row's cost). At
  // width 1 the dispatcher measures on this thread, at commit time.
  const Oracle measure =
      oracle != nullptr
          ? *oracle
          : Oracle([this](std::size_t row) {
              return Measurement::ok(problem_.y[row], problem_.cost[row]);
            });
  AsyncDispatcher dispatcher(measure, exec);

  // Test design matrix/response, fixed for the whole run.
  la::Matrix testX(state.partition.test.size(), problem_.dim());
  la::Vector testY(state.partition.test.size());
  for (std::size_t i = 0; i < state.partition.test.size(); ++i) {
    const auto row = problem_.x.row(state.partition.test[i]);
    std::copy(row.begin(), row.end(), testX.row(i).begin());
    testY[i] = problem_.y[state.partition.test[i]];
  }

  // Campaign pool posterior cache: pinned to the pool as it stands at loop
  // entry (every later pool is a subset — picks only shrink it), local to
  // this runLoop so a checkpoint resume starts cold and revalidates
  // against the rebuilt factorization chain. Serves pool scoring and the
  // strategies' main-GP predictions; bit-identical to direct prediction,
  // so the flag changes counters, never traces. It serves the fantasy
  // posterior too: the fantasy GP is the main GP extended with one
  // constant-liar observation per pending pick via Cholesky extension,
  // which preserves posteriorVersion and the bitwise train prefix, so the
  // cache stays on its O(n·m) hit/append paths across fantasy rebuilds (a
  // commit replaces a liar y with the real y at the *same x*, and L,
  // K_cross and V depend only on X, never on y).
  gp::PoolPredictCache poolCache;
  if (config_.poolPredictCache && !state.pool.empty())
    poolCache.pin(problem_.x, state.pool);
  // Reusable predict scratch for the fixed-shape test-set predictions.
  gp::PredictWorkspace testWs;
  gp::PredictWorkspace poolWs;

  // One selection step awaiting its measurements: the picked rows in
  // measurement order, the constant-liar value of each, and the
  // selection-time record (execution fields are filled at commit).
  struct PendingStep {
    std::vector<std::size_t> rows;
    std::vector<double> liars;
    IterationRecord rec;
  };
  std::deque<PendingStep> pending;

  // Constant-liar fantasy: the main GP conditioned on every pending pick
  // at its predictive mean. Built only while picks are in flight, so
  // width 1 never copies the GP.
  std::optional<gp::GaussianProcess> fantasy;
  bool fantasyStale = true;  // fantasy no longer matches gp + pending
  bool gpCurrent = false;    // main GP fitted on current state.train
  int consecutiveDegraded = 0;

  const auto extendFantasy = [&](std::size_t row, double liar) {
    try {
      fantasy->addObservation(problem_.x.row(row), liar);
      return true;
    } catch (const NumericalError&) {
      // Prior-only or collapsed-pivot main model: score without the
      // remaining pending extensions rather than aborting the campaign.
      HealthMonitor::instance().record(
          "fantasy.extend",
          "fantasy extension failed; scoring without pending points");
      return false;
    }
  };
  const auto rebuildFantasy = [&] {
    fantasy = gp;
    fantasyStale = false;
    for (const auto& step : pending)
      for (std::size_t i = 0; i < step.rows.size(); ++i)
        if (!extendFantasy(step.rows[i], step.liars[i])) return;
  };

  const auto loopStart = std::chrono::steady_clock::now();
  std::optional<StopReason> stop;
  while (true) {
    // SELECT phase: keep the pipeline full while no stop condition holds.
    // Gates are evaluated on *committed* state (maxIterations additionally
    // counts in-flight steps so the pipeline never overshoots the
    // iteration budget; the cost budget can overshoot by what was in
    // flight when it tripped — a real scheduler cannot un-submit a
    // running job). At width 1 nothing is in flight here, so each pick
    // commits before the next one is selected.
    if (!stop && !dispatcher.full()) {
      const std::size_t s =
          static_cast<std::size_t>(state.iteration) + pending.size();
      // Ambient iteration for fault predicates and health-incident stamps.
      FaultContext::setIteration(static_cast<int>(s));
      trace::Span iterSpan("al.iteration");
      iterSpan.note("iter", s)
          .note("train", state.train.size())
          .note("pool", state.pool.size())
          .note("inflight", pending.size());
      if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        loopStart)
              .count() > config_.wallClockBudgetSec) {
        HealthMonitor::instance().record("watchdog",
                                         "wall-clock budget exhausted");
        stop = StopReason::WatchdogExpired;
        continue;
      }
      if (state.pool.empty()) {
        stop = StopReason::PoolExhausted;  // refined after the drain
        continue;
      }
      if (config_.maxIterations >= 0 &&
          s >= static_cast<std::size_t>(config_.maxIterations)) {
        stop = StopReason::MaxIterations;
        continue;
      }
      if (state.cumulativeCost >= config_.costBudget) {
        stop = StopReason::Budget;
        continue;
      }
      const auto window = static_cast<std::size_t>(config_.amsdWindow);
      if (window > 0 && config_.amsdRelTol > 0.0 &&
          state.history.size() > window) {
        bool converged = true;
        const auto& h = state.history;
        for (std::size_t i = h.size() - window; i < h.size(); ++i) {
          const double prev = h[i - 1].amsd;
          if (prev <= 0.0 ||
              std::abs(h[i].amsd - prev) / prev > config_.amsdRelTol) {
            converged = false;
            break;
          }
        }
        if (converged) {
          stop = StopReason::AmsdConverged;
          continue;
        }
      }

      // Fit the main GP when data was committed since the last fit, or
      // whenever nothing is in flight (as after a quarantined pick). `s`
      // is this step's eventual IterationRecord::iteration, so the
      // hyperparameter-refit cadence is the paper's `iteration %
      // refitEvery` rule at width 1.
      if (!gpCurrent || pending.empty()) {
        if (config_.dynamicNoiseBound) {
          const double lo = std::max(
              baseNoiseLo,
              1.0 / std::sqrt(static_cast<double>(state.train.size())));
          gp.config().noise.lo = std::min(lo, gp.config().noise.hi);
        }
        if (engine.fitWithFallback(
                (s % static_cast<std::size_t>(config_.refitEvery)) == 0)) {
          consecutiveDegraded = 0;
        } else {
          ++consecutiveDegraded;
        }
        gpCurrent = true;
        fantasyStale = true;
      }
      // Prior-only rung: the campaign may continue briefly (a later refit
      // can recover), but a persistently blind model must stop.
      if (consecutiveDegraded > config_.maxConsecutiveDegraded) {
        HealthMonitor::instance().record(
            "model.unhealthy", "consecutive degraded-fit limit exceeded");
        stop = StopReason::ModelUnhealthy;
        continue;
      }
      if (!pending.empty() && fantasyStale) rebuildFantasy();
      const gp::GaussianProcess& model = pending.empty() ? gp : *fantasy;

      // Progress metrics over the remaining pool and the test set, against
      // the fantasy posterior while picks are pending.
      gp::Prediction poolPred;
      la::Vector poolSd;
      double amsd = 0.0;
      double rmse = 0.0;
      {
        trace::Span scoreSpan("al.score");
        scoreSpan.note("pool", state.pool.size())
            .note("test", state.partition.test.size())
            .note("inflight", pending.size());
        // Pool scoring through the campaign cache when it can serve (the
        // gathered poolX matrix is then never materialized); direct batch
        // predict otherwise. Both produce bitwise the same Prediction.
        const bool served =
            config_.poolPredictCache &&
            poolCache.predict(model, state.pool, false, poolPred);
        if (!served) {
          la::Matrix poolX(state.pool.size(), problem_.dim());
          for (std::size_t i = 0; i < state.pool.size(); ++i) {
            const auto row = problem_.x.row(state.pool[i]);
            std::copy(row.begin(), row.end(), poolX.row(i).begin());
          }
          poolPred = model.predict(poolX, false, poolWs);
        }
        poolSd = poolPred.stdDev();
        amsd = stats::mean(poolSd);
        if (!state.partition.test.empty()) {
          const auto testPred = model.predict(testX, false, testWs);
          rmse = stats::rmse(testPred.mean, testY);
        }
      }

      // Let the strategy pick.
      const SelectionContext ctx{model,
                                 problem_,
                                 std::span<const std::size_t>(state.pool),
                                 rng,
                                 config_.poolPredictCache ? &poolCache
                                                          : nullptr,
                                 pending.size()};
      std::vector<std::size_t> picks;
      {
        trace::Span selectSpan("al.select");
        selectSpan.note("pool", state.pool.size())
            .note("batch", std::min(config_.batchSize, state.pool.size()))
            .note("inflight", pending.size());
        if (config_.batchSize == 1) {
          picks.push_back(strategy_->select(ctx));
        } else {
          picks = strategy_->selectBatch(
              ctx, std::min(config_.batchSize, state.pool.size()));
        }
      }
      ALPERF_ASSERT(!picks.empty() && picks.front() < state.pool.size(),
                    "strategy returned no pick in range");

      PendingStep step;
      step.rec.iteration = static_cast<int>(s);
      step.rec.chosenRow = state.pool[picks.front()];
      step.rec.sigmaAtPick = poolSd[picks.front()];
      step.rec.muAtPick = poolPred.mean[picks.front()];
      step.rec.amsd = amsd;
      step.rec.rmse = rmse;
      // Model-health metrics come from the main (committed-data) GP — the
      // fantasy shares its hyperparameters, but its LML would include the
      // liar observations.
      step.rec.noiseVariance = gp.noiseVariance();
      step.rec.lml = gp.logMarginalLikelihood();

      // Take the picks out of the pool (descending positions so erasure
      // is stable); they are measured in that order.
      std::sort(picks.rbegin(), picks.rend());
      for (const std::size_t pos : picks) {
        ALPERF_ASSERT(pos < state.pool.size(), "pick position out of range");
        step.rows.push_back(state.pool[pos]);
        step.liars.push_back(poolPred.mean[pos]);
        state.pool.erase(state.pool.begin() +
                         static_cast<std::ptrdiff_t>(pos));
      }
      dispatcher.submit(step.rows.front(),
                        problem_.x.row(step.rows.front()));
      pending.push_back(std::move(step));
      // Another pick follows before the next commit only while the
      // dispatcher has room (never at width 1): condition the fantasy on
      // this one now.
      if (!dispatcher.full()) {
        if (fantasyStale)
          rebuildFantasy();
        else
          extendFantasy(pending.back().rows.front(),
                        pending.back().liars.front());
      }
      continue;
    }

    // COMMIT phase: nothing (more) to select — retire the oldest step.
    // Commits happen strictly in dispatch order, so records, training-set
    // growth and RNG consumption are deterministic at any slot count.
    if (pending.empty()) break;
    trace::Span commitSpan("al.commit");
    PendingStep step = std::move(pending.front());
    pending.pop_front();
    IterationRecord& rec = step.rec;
    commitSpan.note("iter", rec.iteration).note("row", rec.chosenRow);
    for (std::size_t i = 0; i < step.rows.size(); ++i) {
      const std::size_t row = step.rows[i];
      // A batch step (width 1 only) measures its picks back to back.
      if (i > 0) dispatcher.submit(row, problem_.x.row(row));
      const AsyncDispatcher::Committed committed = dispatcher.commitNext();
      ALPERF_ASSERT(committed.row == row,
                    "commit order diverged from dispatch order");
      // Quarantine on retry exhaustion, train on censored lower bounds.
      const ExecutionResult& er = committed.result;
      rec.wastedCost += er.wastedCost;
      if (er.quarantined) {
        rec.failedAttempts += er.attempts;
        state.quarantined.push_back(row);
        // The fantasy conditioned on a point that never produced data.
        fantasyStale = true;
      } else {
        rec.failedAttempts += er.attempts - 1;
        rec.pickCost += er.measurement.cost;
        if (er.measurement.status == MeasurementStatus::Censored)
          rec.censored = 1.0;
        state.train.push_back(row);
        state.trainY.push_back(er.measurement.y);
        gpCurrent = false;
      }
    }
    state.cumulativeCost += rec.pickCost + rec.wastedCost;
    rec.cumulativeCost = state.cumulativeCost;
    state.history.push_back(rec);
    ++state.iteration;
  }

  result.stopReason = stop.value_or(StopReason::PoolExhausted);
  if (result.stopReason == StopReason::PoolExhausted &&
      !state.quarantined.empty())
    result.stopReason = StopReason::OracleExhausted;

  // The final fit below belongs to no campaign iteration: iteration-scoped
  // fault specs must not hit it, and its health incidents carry no stamp.
  FaultContext::setIteration(-1);

  // Snapshot the loop state *before* the final fit consumes the RNG, so a
  // resumed run re-enters the loop with the exact stream a straight run
  // would have had. The pipeline was drained above, so the checkpoint
  // carries no in-flight state: at width 1 a resume continues an
  // uninterrupted run bit-for-bit; at width k > 1 it preserves the
  // committed prefix and continues deterministically, but with a freshly
  // refilled pipeline, so its picks may differ from an uninterrupted
  // run's.
  state.gpTheta = engine.lastGoodTheta;
  state.trainAtLastFit = engine.fullFitTrainCount;
  state.rngState = rng.saveState();
  state.hasRngState = true;
  result.history = state.history;

  // Final model on everything consumed (fallback as in the loop: a
  // diverged final refit must not discard the campaign).
  engine.fitWithFallback(true);
  result.finalGp = gp;
  result.checkpoint = std::move(state);
  return result;
}

}  // namespace alperf::al
