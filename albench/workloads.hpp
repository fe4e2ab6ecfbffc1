#pragma once

/// \file workloads.hpp
/// The three campaign workloads. Each one builds its regression problem
/// from the generated job database and runs numbered *rounds* through
/// alperf's public API. Round i's inputs (partitions, run seeds, oracle
/// latency and failures) are a function of (seed, i) only, so a round can
/// be run again — plain or decorated — on identical inputs.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/dataset.hpp"
#include "common/perf_stats.hpp"
#include "core/learner.hpp"
#include "probes.hpp"

namespace albench {

/// One pass/fail check with a human-readable reading.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Start and end (nowNs) of one call into the learner layer
/// (ActiveLearner::run* or runPairedBatch).
struct Call {
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
};

/// Everything one round produced.
struct RoundResult {
  std::size_t index = 0;
  bool timed = false;
  double wallS = 0.0;  ///< wall time of the round's calls
  double cpuS = 0.0;   ///< process CPU seconds inside the calls
  std::vector<Call> calls;
  std::unique_ptr<Recorder> recorder;
  /// One result per campaign, in the order of recorder->logs().
  std::vector<alperf::al::AlResult> results;
  /// PerfRegistry contents accumulated during the round.
  std::map<std::string, alperf::PerfEntry> counters;
  /// Oracle attempts and failures as counted by the workload's oracle
  /// (0 on table-driven workloads).
  std::int64_t oracleAttempts = 0;
  std::int64_t oracleFailures = 0;
  /// Timing decorator around the oracle (decorated rounds).
  std::unique_ptr<OracleStats> oracleTiming;
  /// Learning-trace digest: picks, RMSE bits and committed responses.
  std::uint64_t digest = 0;
  /// Per campaign: RMSE of the final model over every job of the problem.
  /// The final models themselves are dropped once this is taken, so a
  /// run's memory does not grow with its number of rounds.
  std::vector<double> finalRmse;

  std::uint64_t count(const std::string& name) const;
  double millis(const std::string& name) const;
  std::size_t campaigns() const { return results.size(); }
  std::size_t decisions() const;
  /// Measurements added to the training sets (picks minus quarantines).
  std::size_t committed() const;
};

using Rounds = std::vector<const RoundResult*>;

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  /// Concurrent measurements per campaign (1 = synchronous loop).
  virtual int width() const { return 1; }
  /// Builds the regression problem from a generated database.
  virtual void buildProblem(const alperf::cluster::GeneratedDataset& ds) = 0;
  /// Runs round `index` on the inputs of (seed, index); `timed` arms the
  /// timing decorators.
  RoundResult runRound(std::uint64_t seed, std::size_t index, bool timed);
  /// Output shape and mechanism-coverage checks over a run's rounds.
  virtual std::vector<Check> checks(const Rounds& rounds) const = 0;
  /// The GP prototype the campaigns use (for the replay phase).
  virtual const alperf::gp::GaussianProcess& gpPrototype() const = 0;
  virtual const alperf::al::RegressionProblem& problem() const = 0;

 protected:
  virtual void runCampaigns(std::uint64_t seed, RoundResult& round) = 0;
};

/// `dispatchWidth` is fullspace-async's ExecutionConfig::maxInFlight.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       int dispatchWidth);
std::vector<std::string> workloadNames();

/// Dataset generation with the fixed Table-I configuration (seed 42).
alperf::cluster::GeneratedDataset generateDataset();

/// Sum of a PerfRegistry count over rounds.
std::uint64_t totalCount(const Rounds& rounds, const std::string& name);

}  // namespace albench
