#pragma once

/// \file dispatch.hpp
/// Bounded in-flight experiment dispatch with deterministic commit order —
/// the one execution engine behind every AL loop, at every
/// `ExecutionConfig::maxInFlight`.
///
/// A real measurement backend is a cluster scheduler: submitting a job
/// returns immediately and the result arrives minutes later.
/// AsyncDispatcher keeps up to `maxInFlight` measurements running
/// concurrently, each driven through the full RetryPolicy state machine
/// (retry / backoff / quarantine, executor.hpp) inside its own slot, while
/// the AL loop keeps selecting new experiments against a fantasy posterior
/// (learner.cpp / continuous.cpp).
///
/// **Determinism contract.** Results are *committed* — handed back to the
/// caller — strictly in submission order, regardless of the order in
/// which slots finish. Everything the AL loop does with a result
/// therefore happens in a thread-count-independent order, which is what
/// keeps campaign traces bit-identical at any slot count for a fixed
/// `maxInFlight` (the pick *sequence* does depend on maxInFlight:
/// pipelining is a real algorithmic change, selection sees k−1 fantasy
/// points instead of their measurements).
///
/// **Threading model.** At capacity 1 no thread is started: commitNext()
/// runs the measurement on the calling thread, and no `exec.async.*`
/// counter or timer is recorded. At capacity k > 1 the dispatcher owns up
/// to k dedicated slot threads, spawned lazily on demand and named
/// `exec.slot.N` so every measurement's `exec.measure` / `exec.attempt`
/// spans land on a per-slot trace lane. Oracle calls are latency-bound
/// (the slot mostly *waits* on the backend), so they deliberately do not
/// run on the compute ThreadPool: its width is tied to the core count,
/// which must not cap the dispatch width, and parking compute workers on
/// oracle latency would starve the GP fits and pool scoring that run
/// concurrently with the measurements — learning while measuring is the
/// point. Backends with native asynchrony (Oracle::withAsync) are handed
/// the job at submit() time, on the calling thread, and the measurement
/// only parks on `await`.
///
/// All public methods except the ledger getters must be called from one
/// coordinating thread (the AL loop); the ledger and the commit path are
/// internally synchronized with the slots.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/executor.hpp"
#include "core/oracle.hpp"

namespace alperf::al {

class AsyncDispatcher {
 public:
  /// Row id used for experiments without a problem row (continuous).
  static constexpr std::size_t kNoRow = Oracle::kNoRow;

  /// The oracle must be measurable (`static_cast<bool>(oracle)`); the
  /// config is validated. No threads are spawned until the first submit.
  AsyncDispatcher(Oracle oracle, ExecutionConfig config);

  /// Joins all slot threads. The caller is expected to have drained every
  /// submission via commitNext(); any still-running measurement finishes
  /// (its slot is joined) but its result is discarded uncommitted.
  ~AsyncDispatcher();

  AsyncDispatcher(const AsyncDispatcher&) = delete;
  AsyncDispatcher& operator=(const AsyncDispatcher&) = delete;

  /// Dispatch width (ExecutionConfig::maxInFlight).
  int capacity() const { return config_.maxInFlight; }
  /// Submissions not yet committed (done-but-uncommitted ones included).
  std::size_t inFlight() const;
  bool full() const {
    return inFlight() >= static_cast<std::size_t>(config_.maxInFlight);
  }
  bool idle() const { return inFlight() == 0; }

  /// Submits one experiment (problem row, or kNoRow, plus its design
  /// point, which is copied) and returns its ticket — a 0-based
  /// submission sequence number. Returns immediately; the measurement
  /// runs on a slot thread (at capacity 1, inside commitNext()). Throws
  /// std::logic_error when full().
  std::uint64_t submit(std::size_t row, std::span<const double> x);

  /// One committed experiment: the submission's identity plus the full
  /// retry-state-machine outcome.
  struct Committed {
    std::uint64_t ticket = 0;
    std::size_t row = kNoRow;
    std::vector<double> x;
    ExecutionResult result;
  };

  /// Blocks until the *oldest uncommitted* submission has finished and
  /// returns its outcome — never a younger one, even when younger slots
  /// finished first. Throws std::logic_error when idle(). Ledger counters
  /// are updated here, on the calling thread, so they advance in
  /// deterministic commit order too.
  Committed commitNext();

  /// Campaign ledger across committed executions: cost burned by failed
  /// attempts (backoff surcharges included), failed attempts, and how
  /// many executions ended quarantined.
  double totalWastedCost() const;
  int totalFailedAttempts() const;
  int totalQuarantined() const;

 private:
  struct Job;
  struct State;

  /// Capacity 1 measures on the coordinating thread, with no slot.
  bool runsInline() const { return config_.maxInFlight == 1; }
  /// One job through the retry state machine (slot thread or inline).
  ExecutionResult measure(Job& job, int slot) const;
  void slotMain(int slot);

  Oracle oracle_;
  ExecutionConfig config_;
  std::unique_ptr<State> state_;
};

}  // namespace alperf::al
