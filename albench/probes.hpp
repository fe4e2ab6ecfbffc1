#pragma once

/// \file probes.hpp
/// Measurement primitives of the benchmark. Everything here wraps alperf's
/// public API from the outside; nothing inside the library is timed.
///
///   ProbedStrategy  forwards select/selectBatch to a real strategy and
///                   records, per campaign, the entry time of every
///                   decision and the row it picked. With timing on it
///                   also records each call's exit time and pool size.
///   Recorder        hands out one CampaignLog per strategy instance, so
///                   the factory that runPairedBatch calls once per
///                   campaign yields one log per campaign.
///   OracleStats     counters a timing oracle decorator fills.
///
/// The untimed run takes exactly one clock read per decision (the decision
/// period is an end-to-end metric); the timed run adds the exit read and
/// the oracle decorator.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/oracle.hpp"
#include "core/strategy.hpp"

namespace albench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary process epoch.
std::int64_t nowNs();

/// Seconds between two nowNs() readings.
inline double secondsBetween(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// CPU seconds consumed by the whole process so far.
double processCpuSeconds();

/// Peak resident set size of the process, in MB.
double peakRssMb();

/// Everything the strategy probe saw in one campaign.
struct CampaignLog {
  std::vector<std::int64_t> entryNs;  ///< one per decision
  std::vector<std::int64_t> exitNs;   ///< timed runs only
  std::vector<std::size_t> candidates;  ///< timed runs only
  /// Rows in pick order; read by the oracle from measurement threads.
  std::size_t pickIndex(std::size_t row) const;
  std::size_t decisions() const;
  void recordPicks(const std::vector<std::size_t>& rows);

 private:
  mutable std::mutex mu_;
  std::map<std::size_t, std::size_t> pickOfRow_;
  std::size_t picks_ = 0;
};

/// Creates strategy probes and owns their campaign logs.
class Recorder {
 public:
  explicit Recorder(bool timed) : timed_(timed) {}
  /// Wraps a factory: each call opens a new campaign log.
  alperf::al::StrategyFactory wrap(alperf::al::StrategyFactory inner);
  /// Opens a log and returns a probe around `inner` bound to it.
  alperf::al::StrategyPtr probe(alperf::al::StrategyPtr inner);
  const std::vector<std::unique_ptr<CampaignLog>>& logs() const {
    return logs_;
  }
  CampaignLog& last() { return *logs_.back(); }

 private:
  bool timed_;
  std::vector<std::unique_ptr<CampaignLog>> logs_;
};

/// Counters of a timing oracle decorator (timed runs only).
struct OracleStats {
  std::atomic<std::int64_t> busyNs{0};
  std::atomic<std::int64_t> attempts{0};
  std::atomic<std::int64_t> failed{0};
};

/// An al::Oracle that forwards to `inner`'s row capability and times each
/// attempt into `stats`.
alperf::al::Oracle timedOracle(alperf::al::Oracle inner, OracleStats& stats);

/// Order statistic by linear interpolation (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word);
  void add(double value);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Deterministic 64-bit hash of (seed, stream, index): the benchmark
/// derives every input (partitions, run RNGs, oracle latency and
/// failures) from the command-line seed through it.
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index);

/// mixSeed mapped to [0, 1).
double unitHash(std::uint64_t seed, std::uint64_t stream,
                std::uint64_t index);

}  // namespace albench
