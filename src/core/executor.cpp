#include "core/executor.hpp"

#include <algorithm>
#include <cmath>

#include "common/trace.hpp"

namespace alperf::al {

void RetryPolicy::validate() const {
  requireArg(maxRetries >= 0, "RetryPolicy: maxRetries must be >= 0");
  requireArg(backoffCostBase >= 0.0 && std::isfinite(backoffCostBase),
             "RetryPolicy: backoffCostBase must be finite and >= 0");
  requireArg(backoffGrowth >= 1.0,
             "RetryPolicy: backoffGrowth must be >= 1");
  requireArg(backoffCostCap >= 0.0,
             "RetryPolicy: backoffCostCap must be >= 0");
}

double RetryPolicy::backoffCost(int retry) const {
  requireArg(retry >= 1, "RetryPolicy::backoffCost: retry must be >= 1");
  if (backoffCostBase == 0.0) return 0.0;
  double surcharge = backoffCostBase;
  for (int k = 1; k < retry && surcharge < backoffCostCap; ++k)
    surcharge *= backoffGrowth;
  return std::min(surcharge, backoffCostCap);
}

void ExecutionConfig::validate() const {
  retry.validate();
  requireArg(maxInFlight >= 1 && maxInFlight <= 1024,
             "ExecutionConfig: maxInFlight must be in [1, 1024]");
}

ExecutionResult runWithRetries(const RetryPolicy& policy,
                               const std::function<Measurement()>& attempt) {
  requireArg(attempt != nullptr, "runWithRetries: null attempt");
  trace::Span measureSpan("exec.measure");
  ExecutionResult result;
  for (int tryIdx = 0; tryIdx <= policy.maxRetries; ++tryIdx) {
    trace::Span attemptSpan("exec.attempt");
    attemptSpan.note("try", tryIdx);
    Measurement m = attempt();
    // A hand-built "Ok" carrying NaN/Inf is a failed measurement: it must
    // never be fed into the GP's Cholesky.
    if (m.status == MeasurementStatus::Ok && !std::isfinite(m.y))
      m = Measurement::failed(m.totalCost(), m.attempts);
    if (m.status == MeasurementStatus::Censored && !std::isfinite(m.y))
      m = Measurement::failed(m.totalCost(), m.attempts);
    attemptSpan.note("outcome", toString(m.status));

    result.attempts += m.attempts;
    if (m.usable()) {
      // The backend may have retried internally; its own waste joins the
      // executor-level waste in the campaign ledger.
      result.wastedCost += m.wastedCost;
      m.wastedCost = 0.0;
      result.measurement = m;
      measureSpan.note("outcome", toString(m.status))
          .note("attempts", result.attempts);
      return result;
    }
    result.wastedCost += m.totalCost();
    if (tryIdx < policy.maxRetries)
      result.wastedCost += policy.backoffCost(tryIdx + 1);
    result.measurement = m;
  }
  result.quarantined = true;
  measureSpan.note("outcome", "quarantined").note("attempts", result.attempts);
  return result;
}

}  // namespace alperf::al
