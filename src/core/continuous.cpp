#include "core/continuous.hpp"

#include <chrono>
#include <cmath>
#include <deque>
#include <optional>

#include "common/error.hpp"
#include "common/fault_inject.hpp"
#include "common/health.hpp"
#include "common/trace.hpp"
#include "core/dispatch.hpp"
#include "opt/multistart.hpp"

namespace alperf::al {

AcquisitionFn varianceAcquisition() {
  return [](double, double sd) { return sd; };
}

AcquisitionFn costEfficiencyAcquisition() {
  return [](double mean, double sd) { return sd - mean; };
}

ContinuousSuggestion suggestContinuous(const gp::GaussianProcess& gp,
                                       const opt::BoxBounds& bounds,
                                       const AcquisitionFn& acq,
                                       int nStarts, stats::Rng& rng) {
  requireArg(gp.fitted(), "suggestContinuous: GP must be fitted");
  requireArg(acq != nullptr, "suggestContinuous: null acquisition");
  requireArg(nStarts >= 1, "suggestContinuous: nStarts must be >= 1");
  const std::size_t d = bounds.dim();
  requireArg(gp.trainX().cols() == d,
             "suggestContinuous: bounds dimension mismatch");

  // Minimize the negative acquisition; numeric gradients are adequate
  // because the posterior is smooth and cheap to evaluate pointwise.
  const opt::FunctionObjective objective(
      d, [&gp, &acq](std::span<const double> x) {
        const auto [mean, var] = gp.predictOne(x);
        const double a = acq(mean, std::sqrt(std::max(var, 0.0)));
        return std::isfinite(a) ? -a
                                : std::numeric_limits<double>::infinity();
      });
  const opt::Lbfgs local(
      {.maxIterations = 60, .gradTol = 1e-7, .stepTol = 1e-12, .fTol = 0.0});
  const auto minimizer = [&local](const opt::Objective& f,
                                  std::span<const double> x0,
                                  const opt::BoxBounds& b) {
    return local.minimize(f, x0, b);
  };
  const auto start = bounds.sample(rng);
  const auto result =
      opt::multiStartMinimize(objective, start, bounds, minimizer,
                              nStarts - 1, rng);

  ContinuousSuggestion suggestion;
  suggestion.x = result.best.x;
  const auto [mean, var] = gp.predictOne(suggestion.x);
  suggestion.mean = mean;
  suggestion.sd = std::sqrt(std::max(var, 0.0));
  suggestion.acquisition = -result.best.fval;
  return suggestion;
}

GradientAcquisition varianceAcquisitionGrad() {
  return {[](double, double sd) { return sd; },
          [](double, double) { return std::pair{0.0, 1.0}; }};
}

GradientAcquisition costEfficiencyAcquisitionGrad() {
  return {[](double mean, double sd) { return sd - mean; },
          [](double, double) { return std::pair{-1.0, 1.0}; }};
}

ContinuousSuggestion suggestContinuous(const gp::GaussianProcess& gp,
                                       const opt::BoxBounds& bounds,
                                       const GradientAcquisition& acq,
                                       int nStarts, stats::Rng& rng) {
  requireArg(gp.fitted(), "suggestContinuous: GP must be fitted");
  requireArg(acq.value != nullptr && acq.partials != nullptr,
             "suggestContinuous: incomplete gradient acquisition");
  requireArg(nStarts >= 1, "suggestContinuous: nStarts must be >= 1");
  const std::size_t d = bounds.dim();
  requireArg(gp.trainX().cols() == d,
             "suggestContinuous: bounds dimension mismatch");

  const auto negValueAndGrad = [&gp, &acq](std::span<const double> x,
                                           std::span<double> g) {
    const auto p = gp.predictOneWithGradient(x);
    const double sd = std::sqrt(std::max(p.variance, 1e-18));
    const double a = acq.value(p.mean, sd);
    const auto [dMu, dSd] = acq.partials(p.mean, sd);
    for (std::size_t i = 0; i < g.size(); ++i) {
      const double dSdDx = p.varianceGrad[i] / (2.0 * sd);
      g[i] = -(dMu * p.meanGrad[i] + dSd * dSdDx);
    }
    return std::isfinite(a) ? -a : std::numeric_limits<double>::infinity();
  };
  const opt::FunctionObjective objective(
      d,
      [&gp, &acq](std::span<const double> x) {
        const auto [mean, var] = gp.predictOne(x);
        const double a = acq.value(mean, std::sqrt(std::max(var, 0.0)));
        return std::isfinite(a) ? -a
                                : std::numeric_limits<double>::infinity();
      },
      opt::FunctionObjective::CombinedFn(negValueAndGrad));
  const opt::Lbfgs local(
      {.maxIterations = 60, .gradTol = 1e-7, .stepTol = 1e-12, .fTol = 0.0});
  const auto minimizer = [&local](const opt::Objective& f,
                                  std::span<const double> x0,
                                  const opt::BoxBounds& b) {
    return local.minimize(f, x0, b);
  };
  const auto start = bounds.sample(rng);
  const auto result = opt::multiStartMinimize(objective, start, bounds,
                                              minimizer, nStarts - 1, rng);

  ContinuousSuggestion suggestion;
  suggestion.x = result.best.x;
  const auto [mean, var] = gp.predictOne(suggestion.x);
  suggestion.mean = mean;
  suggestion.sd = std::sqrt(std::max(var, 0.0));
  suggestion.acquisition = -result.best.fval;
  return suggestion;
}

namespace {

/// The GP's training set grown by one observation.
std::pair<la::Matrix, la::Vector> grownTrainingSet(
    const gp::GaussianProcess& gp, std::span<const double> xNew,
    double yNew) {
  const la::Matrix& x = gp.trainX();
  la::Matrix grown(x.rows() + 1, x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto src = x.row(i);
    std::copy(src.begin(), src.end(), grown.row(i).begin());
  }
  std::copy(xNew.begin(), xNew.end(), grown.row(x.rows()).begin());
  la::Vector yAll = gp.trainY();
  yAll.push_back(yNew);
  return {std::move(grown), std::move(yAll)};
}

/// Full refit on the grown set, walking the same degradation ladder as
/// ActiveLearner (docs/ROBUSTNESS.md): the requested fit, the same fit
/// with the jitter cap escalated to `recoveryJitterScale`, a posterior-
/// only refit at `lastGoodTheta`, and finally a prior-only posterior
/// (which cannot fail). Returns true when the model ended with a genuine
/// GP posterior, false when it is degraded to the prior.
bool refitGrownWithFallback(gp::GaussianProcess& gp,
                            std::span<const double> xNew, double yNew,
                            bool optimize, double recoveryJitterScale,
                            std::vector<double>& lastGoodTheta,
                            int& fitFallbacks, stats::Rng& rng) {
  auto [grown, yAll] = grownTrainingSet(gp, xNew, yNew);
  const double baseJitterScale = gp.config().jitterScaleMax;
  const auto tryFit = [&](bool opt) {
    gp.config().optimize = opt;
    try {
      gp.fit(la::Matrix(grown), la::Vector(yAll), rng);
      return std::isfinite(gp.logMarginalLikelihood());
    } catch (const NumericalError&) {
      return false;
    }
  };
  bool ok = tryFit(optimize);
  if (!ok) {
    HealthMonitor::instance().record("fit.retry",
                                     "refit with escalated jitter cap");
    gp.config().jitterScaleMax =
        std::max(baseJitterScale, recoveryJitterScale);
    ok = tryFit(optimize);
  }
  if (!ok) {
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
    return true;
  }
  gp.setThetaFull(lastGoodTheta);
  gp.fitPriorOnly(std::move(grown), std::move(yAll));
  ++fitFallbacks;
  HealthMonitor::instance().record("fit.fallback.prior",
                                   "prior-only posterior installed");
  return false;
}

}  // namespace

ContinuousAlResult runContinuousAl(gp::GaussianProcess gp, la::Matrix seedX,
                                   la::Vector seedY,
                                   const opt::BoxBounds& bounds,
                                   const Oracle& oracle,
                                   const AcquisitionFn& acq,
                                   const ContinuousAlConfig& config,
                                   stats::Rng& rng) {
  // The Oracle class already wraps infallible backends: a NaN/Inf response
  // throws std::invalid_argument before it can reach a Cholesky. Backends
  // that legitimately fail use the RetryPolicy overload.
  RetryPolicy failFast;
  failFast.maxRetries = 0;
  return runContinuousAl(std::move(gp), std::move(seedX), std::move(seedY),
                         bounds, oracle, failFast, acq, config, rng);
}

ContinuousAlResult runContinuousAl(gp::GaussianProcess gp, la::Matrix seedX,
                                   la::Vector seedY,
                                   const opt::BoxBounds& bounds,
                                   const Oracle& oracle,
                                   const RetryPolicy& policy,
                                   const AcquisitionFn& acq,
                                   const ContinuousAlConfig& config,
                                   stats::Rng& rng) {
  requireArg(oracle.hasPointMeasure(),
             "runContinuousAl: oracle cannot measure a point");
  requireArg(config.iterations >= 1 && config.refitEvery >= 1 &&
                 config.maxConsecutiveFailures >= 1,
             "runContinuousAl: invalid config");
  policy.validate();
  ExecutionConfig exec = config.execution;
  exec.retry = policy;
  AsyncDispatcher dispatcher(oracle, exec);

  // The seed fit is a precondition, not a campaign step: without any
  // posterior there is nothing to fall back to, so failures throw.
  // Iteration-scoped fault specs must not hit it either.
  FaultContext::setIteration(-1);
  gp.config().optimize = true;
  gp.fit(std::move(seedX), std::move(seedY), rng);

  ContinuousAlResult result{.history = {}, .finalGp = gp};

  // One in-flight suggestion: its location, the constant-liar value the
  // fantasy is conditioned on, and the suggestion-time record fields.
  struct PendingPick {
    std::vector<double> x;
    double liar = 0.0;
    ContinuousAlRecord rec;
  };
  std::deque<PendingPick> pending;

  // Suggestions are made against the real GP when nothing is in flight,
  // otherwise against a fantasy conditioned on the pending points at
  // their predictive means — built only then, so width 1 never copies
  // the GP.
  std::optional<gp::GaussianProcess> fantasy;
  bool fantasyStale = true;  // fantasy no longer matches gp + pending
  std::vector<double> lastGoodTheta = gp.thetaFull();
  int consecutiveFailures = 0;
  int consecutiveDegraded = 0;
  int committed = 0;
  std::optional<StopReason> stop;
  const auto loopStart = std::chrono::steady_clock::now();

  const auto extendFantasy = [&](const PendingPick& p) {
    try {
      fantasy->addObservation(p.x, p.liar);
      return true;
    } catch (const NumericalError&) {
      // Degraded main model: suggest without the remaining pending
      // extensions rather than aborting the campaign.
      HealthMonitor::instance().record(
          "fantasy.extend",
          "fantasy extension failed; suggesting without pending points");
      return false;
    }
  };
  const auto rebuildFantasy = [&] {
    fantasy = gp;
    fantasyStale = false;
    for (const auto& p : pending)
      if (!extendFantasy(p)) return;
  };

  while (true) {
    // SUGGEST phase: keep the pipeline full while no stop condition holds.
    // At width 1 nothing is in flight here, so each suggestion commits
    // before the next one is made.
    if (!stop && !dispatcher.full()) {
      const int s = committed + static_cast<int>(pending.size());
      if (s >= config.iterations) {
        stop = StopReason::MaxIterations;
        continue;
      }
      // Ambient fault/trace iteration: at width > 1 slot threads observe
      // the most recently submitted index.
      FaultContext::setIteration(s);
      trace::Span roundSpan("al.round");
      roundSpan.note("iter", s)
          .note("n", gp.numTrainPoints())
          .note("inflight", pending.size());
      if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        loopStart)
              .count() > config.wallClockBudgetSec) {
        HealthMonitor::instance().record("watchdog",
                                         "wall-clock budget exhausted");
        stop = StopReason::WatchdogExpired;
        continue;
      }
      if (!pending.empty() && fantasyStale) rebuildFantasy();
      const auto suggestion =
          suggestContinuous(pending.empty() ? gp : *fantasy, bounds, acq,
                            config.nStarts, rng);

      PendingPick p;
      p.x = suggestion.x;
      p.liar = suggestion.mean;
      p.rec.x = suggestion.x;
      p.rec.sdAtPick = suggestion.sd;
      p.rec.acquisition = suggestion.acquisition;
      dispatcher.submit(AsyncDispatcher::kNoRow, p.x);
      pending.push_back(std::move(p));
      // Another suggestion follows before the next commit only while the
      // dispatcher has room (never at width 1): condition the fantasy on
      // this one now.
      if (!dispatcher.full()) {
        if (fantasyStale)
          rebuildFantasy();
        else
          extendFantasy(pending.back());
      }
      continue;
    }

    // COMMIT phase: retire the oldest in-flight suggestion.
    if (pending.empty()) break;
    const AsyncDispatcher::Committed job = dispatcher.commitNext();
    PendingPick p = std::move(pending.front());
    pending.pop_front();
    const ExecutionResult& er = job.result;

    ContinuousAlRecord rec = std::move(p.rec);
    rec.wastedCost = er.wastedCost;
    result.wastedCost += er.wastedCost;
    ++committed;

    if (er.quarantined) {
      // No observation: the GP stays as it is, but the fantasy conditioned
      // on a point that never produced data.
      rec.measured = false;
      rec.failedAttempts = er.attempts;
      result.history.push_back(std::move(rec));
      fantasyStale = true;
      if (++consecutiveFailures >= config.maxConsecutiveFailures && !stop)
        stop = StopReason::OracleExhausted;
      continue;
    }
    consecutiveFailures = 0;
    rec.y = er.measurement.y;
    rec.failedAttempts = er.attempts - 1;
    if (er.measurement.status == MeasurementStatus::Censored)
      rec.censored = 1.0;
    result.history.push_back(std::move(rec));

    // Real observation into the main GP, keyed to the commit count.
    bool healthy;
    if (committed % config.refitEvery == 0) {
      // Full refit: re-optimize hyperparameters on the grown dataset.
      healthy = refitGrownWithFallback(
          gp, p.x, er.measurement.y, /*optimize=*/true,
          config.recoveryJitterScale, lastGoodTheta, result.fitFallbacks,
          rng);
    } else {
      // Cheap O(n²) incremental update between refits; an extension whose
      // pivot collapses falls back to a posterior-only rebuild.
      try {
        gp.addObservation(p.x, er.measurement.y);
        healthy = true;
      } catch (const NumericalError&) {
        healthy = refitGrownWithFallback(
            gp, p.x, er.measurement.y, /*optimize=*/false,
            config.recoveryJitterScale, lastGoodTheta, result.fitFallbacks,
            rng);
        if (healthy) ++result.fitFallbacks;
      }
    }
    fantasyStale = true;
    if (healthy) {
      consecutiveDegraded = 0;
    } else if (++consecutiveDegraded > config.maxConsecutiveDegraded &&
               !stop) {
      HealthMonitor::instance().record(
          "model.unhealthy", "consecutive degraded-fit limit exceeded");
      stop = StopReason::ModelUnhealthy;
    }
  }

  // On a stop condition the pipeline was drained: already-running
  // measurements are committed and recorded.
  result.stopReason = stop.value_or(StopReason::MaxIterations);
  FaultContext::setIteration(-1);
  result.finalGp = gp;
  return result;
}

}  // namespace alperf::al
