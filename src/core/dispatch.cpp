#include "core/dispatch.hpp"

#include <algorithm>
#include <condition_variable>
#include <string>
#include <thread>

#include "common/perf_stats.hpp"
#include "common/thread_annotations.hpp"
#include "common/trace.hpp"

namespace alperf::al {

/// One uncommitted submission. Identity fields are written by the
/// coordinating thread before the job enters the pending list; `claimed`,
/// `done` and `result` are handed between one slot thread and the
/// committer under State::mu.
struct AsyncDispatcher::Job {
  std::uint64_t ticket = 0;
  std::size_t row = kNoRow;
  std::vector<double> x;
  /// Backend ticket when the oracle is natively async: submit() already
  /// handed the experiment to the backend, so the first attempt awaits
  /// this ticket; retries re-submit from the slot thread.
  std::uint64_t backendTicket = 0;
  bool hasBackendTicket = false;
  bool claimed = false;
  bool done = false;
  ExecutionResult result;
};

struct AsyncDispatcher::State {
  mutable Mutex mu;
  std::condition_variable_any wake;      ///< slots: work arrived / stopping
  std::condition_variable_any finished;  ///< committer: a slot finished a job
  /// Uncommitted jobs in submission order (front = oldest). unique_ptr
  /// keeps each Job's address stable for the slot that claimed it while
  /// commits shift the list.
  std::vector<std::unique_ptr<Job>> pending ALPERF_GUARDED_BY(mu);
  /// Coordinator-confined: written under mu only because spawning happens
  /// inside submit's critical section; read (for join) exclusively by the
  /// coordinating thread after stop is published, when no slot can spawn.
  std::vector<std::thread> slots;
  std::size_t idleSlots ALPERF_GUARDED_BY(mu) = 0;
  std::uint64_t nextTicket ALPERF_GUARDED_BY(mu) = 0;
  bool stop ALPERF_GUARDED_BY(mu) = false;

  /// Ledger; written only by commitNext, in commit order.
  double totalWastedCost ALPERF_GUARDED_BY(mu) = 0.0;
  int totalFailedAttempts ALPERF_GUARDED_BY(mu) = 0;
  int totalQuarantined ALPERF_GUARDED_BY(mu) = 0;
};

AsyncDispatcher::AsyncDispatcher(Oracle oracle, ExecutionConfig config)
    : oracle_(std::move(oracle)),
      config_(config),
      state_(std::make_unique<State>()) {
  config_.validate();
  requireArg(static_cast<bool>(oracle_),
             "AsyncDispatcher: oracle has no measure capability");
}

AsyncDispatcher::~AsyncDispatcher() {
  {
    MutexLock lk(state_->mu);
    state_->stop = true;
  }
  state_->wake.notify_all();
  for (auto& slot : state_->slots) slot.join();
}

std::size_t AsyncDispatcher::inFlight() const {
  MutexLock lk(state_->mu);
  return state_->pending.size();
}

std::uint64_t AsyncDispatcher::submit(std::size_t row,
                                      std::span<const double> x) {
  State& st = *state_;
  trace::Span span("exec.dispatch");
  auto job = std::make_unique<Job>();
  job->row = row;
  job->x.assign(x.begin(), x.end());
  // Natively asynchronous backends get the experiment immediately, on the
  // coordinating thread, so the backend can start before a slot is free
  // to park on it.
  if (oracle_.hasAsync()) {
    job->backendTicket = oracle_.submit(row, job->x);
    job->hasBackendTicket = true;
  }

  std::size_t inflightNow = 0;
  std::uint64_t ticket = 0;
  {
    MutexLock lk(st.mu);
    ALPERF_ASSERT(
        st.pending.size() < static_cast<std::size_t>(config_.maxInFlight),
        "AsyncDispatcher::submit: dispatcher is full");
    ticket = st.nextTicket++;
    job->ticket = ticket;
    st.pending.push_back(std::move(job));
    inflightNow = st.pending.size();
    // Lazy slot spawning, biased toward spawning: a slot that was just
    // notified still counts as idle until it reacquires the lock, so the
    // unclaimed-vs-idle comparison can only over-provision (bounded by
    // maxInFlight), never strand a job with no slot to run it.
    if (!runsInline()) {
      const std::size_t unclaimed = static_cast<std::size_t>(
          std::count_if(st.pending.begin(), st.pending.end(),
                        [](const auto& j) { return !j->claimed; }));
      if (unclaimed > st.idleSlots &&
          st.slots.size() < static_cast<std::size_t>(config_.maxInFlight)) {
        const int slotId = static_cast<int>(st.slots.size());
        st.slots.emplace_back(&AsyncDispatcher::slotMain, this, slotId);
      }
    }
  }
  span.note("ticket", static_cast<unsigned long long>(ticket))
      .note("inflight", inflightNow);
  if (row != kNoRow) span.note("row", row);
  if (runsInline()) return ticket;
  st.wake.notify_one();
  PerfRegistry::instance().increment("exec.async.submitted");
  trace::counter("exec.async.inflight", static_cast<double>(inflightNow));
  return ticket;
}

AsyncDispatcher::Committed AsyncDispatcher::commitNext() {
  State& st = *state_;
  std::unique_ptr<Job> job;
  if (runsInline()) {
    // Width 1: the measurement runs here, on the calling thread.
    {
      MutexLock lk(st.mu);
      ALPERF_ASSERT(!st.pending.empty(),
                    "AsyncDispatcher::commitNext: nothing in flight");
      job = std::move(st.pending.front());
      st.pending.erase(st.pending.begin());
    }
    job->result = measure(*job, 0);
  } else {
    // Time spent blocked on the pipeline head — the part of the
    // measurement latency still on the loop's critical path.
    ScopedTimer timer("exec.async.commitwait");
    UniqueLock lk(st.mu);
    ALPERF_ASSERT(!st.pending.empty(),
                  "AsyncDispatcher::commitNext: nothing in flight");
    st.finished.wait(lk, [&st] { return st.pending.front()->done; });
    job = std::move(st.pending.front());
    st.pending.erase(st.pending.begin());
  }
  std::size_t remaining = 0;
  {
    MutexLock lk(st.mu);
    remaining = st.pending.size();
    st.totalWastedCost += job->result.wastedCost;
    if (job->result.quarantined) {
      st.totalFailedAttempts += job->result.attempts;
      ++st.totalQuarantined;
    } else {
      st.totalFailedAttempts += job->result.attempts - 1;
    }
  }
  if (!runsInline()) {
    PerfRegistry::instance().increment("exec.async.committed");
    if (job->result.quarantined)
      PerfRegistry::instance().increment("exec.async.quarantined");
    trace::counter("exec.async.inflight", static_cast<double>(remaining));
  }

  Committed out;
  out.ticket = job->ticket;
  out.row = job->row;
  out.x = std::move(job->x);
  out.result = std::move(job->result);
  return out;
}

double AsyncDispatcher::totalWastedCost() const {
  MutexLock lk(state_->mu);
  return state_->totalWastedCost;
}

int AsyncDispatcher::totalFailedAttempts() const {
  MutexLock lk(state_->mu);
  return state_->totalFailedAttempts;
}

int AsyncDispatcher::totalQuarantined() const {
  MutexLock lk(state_->mu);
  return state_->totalQuarantined;
}

ExecutionResult AsyncDispatcher::measure(Job& job, int slot) const {
  trace::Span span("exec.inflight");
  span.note("ticket", static_cast<unsigned long long>(job.ticket))
      .note("slot", slot);
  bool firstAttempt = true;
  ExecutionResult result = runWithRetries(config_.retry, [&] {
    if (!oracle_.hasAsync()) return oracle_.measureAny(job.row, job.x);
    if (firstAttempt && job.hasBackendTicket) {
      firstAttempt = false;
      return oracle_.await(job.backendTicket);
    }
    firstAttempt = false;
    return oracle_.await(oracle_.submit(job.row, job.x));
  });
  span.note("outcome", result.quarantined ? "quarantined" : "committed")
      .note("attempts", result.attempts);
  return result;
}

void AsyncDispatcher::slotMain(int slot) {
  trace::nameCurrentThread("exec.slot." + std::to_string(slot));
  State& st = *state_;
  UniqueLock lk(st.mu);
  while (true) {
    if (st.stop) return;  // unclaimed jobs are dropped, never started
    Job* job = nullptr;
    for (const auto& j : st.pending) {
      if (!j->claimed) {
        job = j.get();
        break;
      }
    }
    if (job == nullptr) {
      ++st.idleSlots;
      st.wake.wait(lk);
      --st.idleSlots;
      continue;
    }
    job->claimed = true;
    lk.unlock();

    ExecutionResult result = measure(*job, slot);

    lk.lock();
    job->result = std::move(result);
    job->done = true;
    st.finished.notify_all();
  }
}

}  // namespace alperf::al
