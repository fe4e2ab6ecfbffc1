#pragma once

/// \file checkpoint.hpp
/// Campaign checkpoint persistence: serialize the complete AL loop state
/// (learning trace, partition, training set with measured responses,
/// quarantine set, GP hyperparameters, RNG engine state) to CSV so a
/// half-finished campaign survives a process crash and
/// ActiveLearner::resume continues it bit-for-bit.
///
/// A checkpoint is three CSV files sharing a caller-chosen path prefix,
/// written through the ordinary data::Table/writeCsv machinery so they
/// are greppable, diffable, and loadable by external tooling:
///
///   <prefix>.meta.csv   key/value scalars: format version, iteration,
///                       cumulative cost, GP thetaFull, RNG state words
///   <prefix>.trace.csv  the IterationRecord history (historyToTable)
///   <prefix>.sets.csv   one row per (set, row index[, response]):
///                       initial/active/test/train/pool/quarantined
///
/// Doubles are stored at max_digits10 and the RNG words as decimal
/// strings, so a load/save round-trip is lossless.

#include <string>

#include "core/learner.hpp"

namespace alperf::al {

/// Writes `<prefix>.meta.csv`, `<prefix>.trace.csv`, `<prefix>.sets.csv`.
/// Throws std::runtime_error when a file cannot be opened and
/// std::invalid_argument when the checkpoint has no RNG state (only
/// loop-produced checkpoints are resumable).
void saveCheckpoint(const Checkpoint& checkpoint, const std::string& prefix);

/// Reads a checkpoint previously written by saveCheckpoint. Throws
/// std::runtime_error on missing files and std::invalid_argument on
/// malformed or version-incompatible content — including an index cell
/// (trace Iteration/ChosenRow, sets Row) that is NaN, negative or
/// fractional, reported with the file, column and 1-based row.
Checkpoint loadCheckpoint(const std::string& prefix);

}  // namespace alperf::al
