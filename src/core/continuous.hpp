#pragma once

/// \file continuous.hpp
/// Continuous-candidate active learning — the paper's Sec. VI future
/// work: "Realistic simulations often involve continuous or
/// near-continuous parameters, such that the active set cannot be treated
/// as finite. We expect that this could be handled ... preferably, by
/// using continuous optimization. Gradient-based methods, which are
/// available with GPR, would provide an important benefit".
///
/// suggestContinuous() maximizes an acquisition over a continuous box via
/// multi-start quasi-Newton ascent on the (smooth) GP posterior, and
/// runContinuousAl() wraps it into an online loop against a caller-
/// supplied measurement oracle, using the O(n²) incremental GP update
/// between hyperparameter refits.

#include <functional>

#include "core/executor.hpp"
#include "core/learner.hpp"
#include "gp/gp.hpp"
#include "opt/gradient.hpp"

namespace alperf::al {

/// Acquisition value from the predictive (mean, sd) at a point; higher
/// is better.
using AcquisitionFn = std::function<double(double mean, double sd)>;

/// The paper's two acquisitions in continuous form.
AcquisitionFn varianceAcquisition();        ///< a = sd
AcquisitionFn costEfficiencyAcquisition();  ///< a = sd − mean (eq. 14)

/// The best point the acquisition search found, with the posterior it
/// saw there.
struct ContinuousSuggestion {
  std::vector<double> x;       ///< suggested input (inside the box)
  double acquisition = 0.0;    ///< acquisition value at x
  double mean = 0.0;           ///< predictive mean at x
  double sd = 0.0;             ///< predictive SD at x
};

/// Maximizes `acq` over the box with `nStarts` random multi-starts of
/// box-constrained L-BFGS. The GP must be fitted; bounds must be finite
/// and match its input dimension.
ContinuousSuggestion suggestContinuous(const gp::GaussianProcess& gp,
                                       const opt::BoxBounds& bounds,
                                       const AcquisitionFn& acq,
                                       int nStarts, stats::Rng& rng);

/// Acquisition with analytic partial derivatives with respect to the
/// predictive (mean, sd) — combined with the GP's analytic posterior
/// input-gradients this gives fully gradient-based suggestions (no finite
/// differences anywhere in the chain).
struct GradientAcquisition {
  AcquisitionFn value;
  /// Returns {∂a/∂µ, ∂a/∂σ} at the given (mean, sd).
  std::function<std::pair<double, double>(double mean, double sd)> partials;
};

GradientAcquisition varianceAcquisitionGrad();        ///< a = σ
GradientAcquisition costEfficiencyAcquisitionGrad();  ///< a = σ − µ

/// Gradient-based variant of suggestContinuous: same multi-start L-BFGS,
/// but value and gradient come from one analytic posterior evaluation.
ContinuousSuggestion suggestContinuous(const gp::GaussianProcess& gp,
                                       const opt::BoxBounds& bounds,
                                       const GradientAcquisition& acq,
                                       int nStarts, stats::Rng& rng);

// The measurement backend is the al::Oracle class (core/oracle.hpp),
// shared with the pool-based learner. Plain `double(std::span<const
// double>)` callables still convert implicitly — the class wraps them and
// throws std::invalid_argument on a NaN/Inf response; backends that can
// legitimately fail return Measurement instead and go through the
// RetryPolicy overload.

/// Loop controls for the online continuous-candidate learner.
struct ContinuousAlConfig {
  int iterations = 30;  ///< experiments to run after the seed set
  int nStarts = 8;      ///< multi-starts per acquisition maximization
  /// Full hyperparameter refit cadence; between refits the GP is updated
  /// incrementally in O(n²).
  int refitEvery = 5;
  /// Fallible path only: stop with StopReason::OracleExhausted after this
  /// many *consecutive* suggestions whose retries were all exhausted (the
  /// backend is evidently down; measuring further would only burn budget).
  int maxConsecutiveFailures = 3;

  /// Numerical self-healing knobs — same ladder and semantics as
  /// AlConfig (docs/ROBUSTNESS.md): more than `maxConsecutiveDegraded`
  /// consecutive prior-only iterations stop the loop with
  /// StopReason::ModelUnhealthy; `recoveryJitterScale` is the escalated
  /// Cholesky jitter cap of the retry rung; the wall-clock watchdog stops
  /// with StopReason::WatchdogExpired (infinity disables).
  int maxConsecutiveDegraded = 2;
  double recoveryJitterScale = 1e-2;
  double wallClockBudgetSec = std::numeric_limits<double>::infinity();

  /// Execution engine controls (executor.hpp). Every measurement goes
  /// through the dispatch engine (core/dispatch.hpp). At the default
  /// `execution.maxInFlight` of 1 each suggestion is measured before the
  /// next is made; at k > 1 up to k measurements run concurrently while
  /// new suggestions are made against a fantasy posterior conditioned on
  /// the pending points at their predictive means. `execution.retry` is
  /// overridden by the RetryPolicy parameter of the fallible overload.
  ExecutionConfig execution;
};

/// One online iteration: where the learner went and what it measured.
struct ContinuousAlRecord {
  std::vector<double> x;     ///< measured input
  double y = 0.0;            ///< measured response (lower bound if censored)
  double sdAtPick = 0.0;     ///< predictive SD at x before measuring
  double acquisition = 0.0;  ///< acquisition value that won the search
  /// Fault accounting (always 0 on the infallible path); mirrors
  /// IterationRecord's semantics.
  double failedAttempts = 0.0;
  double wastedCost = 0.0;
  double censored = 0.0;
  /// False when retries were exhausted: x was never measured and y is
  /// meaningless; the GP was not updated this iteration.
  bool measured = true;
};

/// Full online trace plus the final model and fault accounting.
struct ContinuousAlResult {
  std::vector<ContinuousAlRecord> history;
  gp::GaussianProcess finalGp;  ///< trained on seed + measured points
  /// MaxIterations on a completed run; OracleExhausted when the loop gave
  /// up after maxConsecutiveFailures unmeasurable suggestions.
  StopReason stopReason = StopReason::MaxIterations;
  /// Refits that rolled back to the last good hyperparameters because the
  /// fresh fit's LML was non-finite or its Cholesky failed.
  int fitFallbacks = 0;
  /// Total cost burned by failed attempts (incl. backoff surcharges).
  double wastedCost = 0.0;
};

/// Online loop: seed the GP with (seedX, seedY), then repeatedly suggest
/// a continuous point, measure it through the oracle, and update.
ContinuousAlResult runContinuousAl(gp::GaussianProcess gp, la::Matrix seedX,
                                   la::Vector seedY,
                                   const opt::BoxBounds& bounds,
                                   const Oracle& oracle,
                                   const AcquisitionFn& acq,
                                   const ContinuousAlConfig& config,
                                   stats::Rng& rng);

/// Fault-tolerant variant: measurements flow through the retry state
/// machine under `policy` (which overrides config.execution.retry).
/// Failed suggestions burn cost but do not update the GP; censored
/// measurements train on their lower bound; a refit whose LML diverges
/// falls back to the last good hyperparameters. With
/// config.execution.maxInFlight > 1 measurements run concurrently;
/// records stay in suggestion order.
ContinuousAlResult runContinuousAl(gp::GaussianProcess gp, la::Matrix seedX,
                                   la::Vector seedY,
                                   const opt::BoxBounds& bounds,
                                   const Oracle& oracle,
                                   const RetryPolicy& policy,
                                   const AcquisitionFn& acq,
                                   const ContinuousAlConfig& config,
                                   stats::Rng& rng);

}  // namespace alperf::al
