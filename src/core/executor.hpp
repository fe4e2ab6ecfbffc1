#pragma once

/// \file executor.hpp
/// Fault-tolerant experiment execution between the AL loops and their
/// measurement backends.
///
/// A backend (real cluster, simulator, instrumented application) is a
/// *fallible oracle* (core/oracle.hpp): it may return Failed or Censored
/// measurements instead of a clean response (common/outcome.hpp).
/// runWithRetries wraps one measurement in a RetryPolicy: failed attempts
/// are retried with a capped exponential cost surcharge (the cost-domain
/// analogue of retry backoff — requeued jobs burn queue time and
/// scheduler overhead), every burned unit is charged to the result, and a
/// point whose retries are exhausted is reported as quarantined so the
/// caller can exclude it from future selection. The dispatch engine
/// (core/dispatch.hpp) runs it for every measurement and keeps the
/// campaign ledger.

#include <functional>

#include "common/outcome.hpp"

namespace alperf::al {

/// Retry behaviour for failed attempts.
struct RetryPolicy {
  /// Extra attempts after the first failure before the point is
  /// quarantined (0 = fail fast).
  int maxRetries = 3;
  /// Fixed cost surcharge of the first retry (requeue/backoff overhead,
  /// in the problem's cost unit; 0 = only the backend-reported burn).
  double backoffCostBase = 0.0;
  /// The surcharge of retry k is backoffCostBase·backoffGrowth^(k-1) ...
  double backoffGrowth = 2.0;
  /// ... capped at this value.
  double backoffCostCap = 1e9;

  /// Throws std::invalid_argument on nonsense values.
  void validate() const;

  /// Cost surcharge charged for retry number `retry` (1-based).
  double backoffCost(int retry) const;
};

/// Everything that governs *how* measurements are executed, as opposed to
/// what is measured: the retry state machine plus the width of the
/// dispatch engine (core/dispatch.hpp). Embedded in AlConfig and
/// ContinuousAlConfig as `.execution`; both loops call validate() on
/// entry. The loops' separate RetryPolicy parameters predate this struct
/// and remain as aliases for one release — a policy passed there
/// overrides `retry`.
struct ExecutionConfig {
  RetryPolicy retry;
  /// Measurements allowed in flight concurrently. 1 (the default) commits
  /// each pick before the next is selected, measuring on the loop's own
  /// thread with no extra threads. k > 1 runs k slots and selects against
  /// a constant-liar fantasy posterior over the pending points.
  int maxInFlight = 1;

  /// Throws std::invalid_argument on nonsense values.
  void validate() const;
};

/// Aggregate outcome of executing one experiment under a RetryPolicy.
struct ExecutionResult {
  /// The final attempt's measurement (Failed when quarantined).
  Measurement measurement;
  /// Total attempts, including the backend's internal ones.
  int attempts = 0;
  /// Cost burned by failed attempts plus retry surcharges. Excludes the
  /// final successful measurement's own cost.
  double wastedCost = 0.0;
  /// True when retries were exhausted without a usable measurement; the
  /// caller must exclude the point from future selection.
  bool quarantined = false;

  /// Everything the campaign was charged for this execution.
  double totalCost() const {
    return wastedCost + (quarantined ? 0.0 : measurement.totalCost());
  }
};

/// The retry state machine: runs `attempt` until it yields a usable
/// measurement or `policy`'s retries are exhausted. Non-finite Ok/Censored
/// responses are demoted to Failed (they must never reach a Cholesky);
/// every failed attempt's burned cost, plus the policy's backoff
/// surcharge, is accumulated into the result. Each AsyncDispatcher
/// measurement runs through it (on a slot, or inline at width 1), and the
/// dispatcher merges results into its ledger at commit time.
ExecutionResult runWithRetries(const RetryPolicy& policy,
                               const std::function<Measurement()>& attempt);

}  // namespace alperf::al
