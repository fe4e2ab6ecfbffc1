#include "core/checkpoint.hpp"

#include <cctype>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "common/error.hpp"
#include "data/csv.hpp"

namespace alperf::al {

namespace {

constexpr int kFormatVersion = 1;

// First meta row; deliberately non-numeric so the CSV reader keeps the
// Value column categorical (a column of bare numbers would be parsed as
// doubles, destroying the exact uint64 RNG words).
constexpr const char* kMagic = "alperf-checkpoint";

std::string fmtDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g",
                std::numeric_limits<double>::max_digits10, v);
  return buf;
}

std::string fmtWord(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

double parseDouble(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  requireArg(end != s.c_str() && *end == '\0',
             "loadCheckpoint: bad double '" + s + "'");
  return v;
}

std::uint64_t parseWord(const std::string& s) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
  // strtoull would accept (and wrap) a leading sign.
  requireArg(!s.empty() && std::isdigit(static_cast<unsigned char>(s[0])) &&
                 *end == '\0',
             "loadCheckpoint: bad integer '" + s + "'");
  return v;
}

/// Largest row index a double column holds exactly (2^53).
constexpr double kMaxRowIndex = 9007199254740992.0;

/// One cell of an index column, checked before it is cast: NaN/Inf,
/// negative, fractional and out-of-range values are rejected with an
/// error naming the source, the column and the 1-based row.
double indexCell(std::span<const double> column, std::size_t i, double max,
                 const std::string& source, const std::string& name) {
  const double v = column[i];
  if (!(std::isfinite(v) && v >= 0.0 && v <= max && std::floor(v) == v))
    throw std::invalid_argument(
        source + ": column '" + name + "', row " + std::to_string(i + 1) +
        ": expected a non-negative integer, got " + fmtDouble(v));
  return v;
}

}  // namespace

data::Table historyToTable(const AlResult& result) {
  return historyToTable(std::span<const IterationRecord>(result.history));
}

data::Table historyToTable(std::span<const IterationRecord> history) {
  const std::size_t n = history.size();
  std::vector<double> iteration(n), chosen(n), sigma(n), mu(n), amsd(n),
      rmse(n), pickCost(n), cumCost(n), noiseVar(n), lml(n), failed(n),
      wasted(n), censored(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& rec = history[i];
    iteration[i] = rec.iteration;
    chosen[i] = static_cast<double>(rec.chosenRow);
    sigma[i] = rec.sigmaAtPick;
    mu[i] = rec.muAtPick;
    amsd[i] = rec.amsd;
    rmse[i] = rec.rmse;
    pickCost[i] = rec.pickCost;
    cumCost[i] = rec.cumulativeCost;
    noiseVar[i] = rec.noiseVariance;
    lml[i] = rec.lml;
    failed[i] = rec.failedAttempts;
    wasted[i] = rec.wastedCost;
    censored[i] = rec.censored;
  }
  data::Table t;
  t.addNumeric("Iteration", std::move(iteration));
  t.addNumeric("ChosenRow", std::move(chosen));
  t.addNumeric("SigmaAtPick", std::move(sigma));
  t.addNumeric("MuAtPick", std::move(mu));
  t.addNumeric("AMSD", std::move(amsd));
  t.addNumeric("RMSE", std::move(rmse));
  t.addNumeric("PickCost", std::move(pickCost));
  t.addNumeric("CumulativeCost", std::move(cumCost));
  t.addNumeric("NoiseVariance", std::move(noiseVar));
  t.addNumeric("LML", std::move(lml));
  t.addNumeric("FailedAttempts", std::move(failed));
  t.addNumeric("WastedCost", std::move(wasted));
  t.addNumeric("Censored", std::move(censored));
  return t;
}

std::vector<IterationRecord> historyFromTable(const data::Table& table,
                                              const std::string& source) {
  const std::size_t n = table.numRows();
  std::vector<IterationRecord> history(n);
  const auto fill = [&](const std::string& name,
                        double IterationRecord::* field, bool required) {
    if (!table.hasColumn(name)) {
      requireArg(!required, source + ": missing column '" + name + "'");
      return;
    }
    const auto col = table.numeric(name);
    for (std::size_t i = 0; i < n; ++i) history[i].*field = col[i];
  };
  requireArg(table.hasColumn("Iteration") && table.hasColumn("ChosenRow"),
             source + ": not a learning-trace table");
  const auto iter = table.numeric("Iteration");
  const auto chosen = table.numeric("ChosenRow");
  for (std::size_t i = 0; i < n; ++i) {
    history[i].iteration =
        static_cast<int>(indexCell(iter, i, INT_MAX, source, "Iteration"));
    history[i].chosenRow = static_cast<std::size_t>(
        indexCell(chosen, i, kMaxRowIndex, source, "ChosenRow"));
  }
  fill("SigmaAtPick", &IterationRecord::sigmaAtPick, true);
  fill("MuAtPick", &IterationRecord::muAtPick, true);
  fill("AMSD", &IterationRecord::amsd, true);
  fill("RMSE", &IterationRecord::rmse, true);
  fill("PickCost", &IterationRecord::pickCost, true);
  fill("CumulativeCost", &IterationRecord::cumulativeCost, true);
  fill("NoiseVariance", &IterationRecord::noiseVariance, true);
  fill("LML", &IterationRecord::lml, true);
  // Fault columns are absent in traces archived before the fault-tolerant
  // execution layer existed.
  fill("FailedAttempts", &IterationRecord::failedAttempts, false);
  fill("WastedCost", &IterationRecord::wastedCost, false);
  fill("Censored", &IterationRecord::censored, false);
  return history;
}


void saveCheckpoint(const Checkpoint& checkpoint, const std::string& prefix) {
  requireArg(checkpoint.hasRngState,
             "saveCheckpoint: checkpoint has no RNG state (not produced by "
             "an AL run)");
  requireArg(checkpoint.trainY.size() == checkpoint.train.size(),
             "saveCheckpoint: train/trainY size mismatch");

  // --- meta: key/value scalars, all as exact strings.
  std::vector<std::string> keys, values;
  const auto put = [&](const std::string& k, const std::string& v) {
    keys.push_back(k);
    values.push_back(v);
  };
  put("Magic", kMagic);
  put("FormatVersion", fmtWord(kFormatVersion));
  put("Iteration", fmtWord(static_cast<std::uint64_t>(checkpoint.iteration)));
  put("CumulativeCost", fmtDouble(checkpoint.cumulativeCost));
  put("TrainAtLastFit",
      fmtWord(static_cast<std::uint64_t>(checkpoint.trainAtLastFit)));
  put("GpThetaCount",
      fmtWord(static_cast<std::uint64_t>(checkpoint.gpTheta.size())));
  for (std::size_t i = 0; i < checkpoint.gpTheta.size(); ++i)
    put("GpTheta" + std::to_string(i), fmtDouble(checkpoint.gpTheta[i]));
  for (std::size_t i = 0; i < checkpoint.rngState.size(); ++i)
    put("RngState" + std::to_string(i), fmtWord(checkpoint.rngState[i]));
  data::Table meta;
  meta.addCategorical("Key", std::move(keys));
  meta.addCategorical("Value", std::move(values));
  data::writeCsv(meta, prefix + ".meta.csv");

  // --- trace: reuse the standard learning-trace table.
  data::writeCsv(
      historyToTable(std::span<const IterationRecord>(checkpoint.history)),
      prefix + ".trace.csv");

  // --- sets: every index set, one row each, in order. The Y column is
  // the measured response for train rows (0 elsewhere — on the fallible
  // path it cannot be reconstructed from the problem table).
  std::vector<std::string> setName;
  std::vector<double> rowIdx, response;
  const auto putSet = [&](const std::string& name,
                          const std::vector<std::size_t>& rows,
                          const la::Vector* y) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      setName.push_back(name);
      rowIdx.push_back(static_cast<double>(rows[i]));
      response.push_back(y ? (*y)[i] : 0.0);
    }
  };
  putSet("initial", checkpoint.partition.initial, nullptr);
  putSet("active", checkpoint.partition.active, nullptr);
  putSet("test", checkpoint.partition.test, nullptr);
  putSet("train", checkpoint.train, &checkpoint.trainY);
  putSet("pool", checkpoint.pool, nullptr);
  putSet("quarantined", checkpoint.quarantined, nullptr);
  data::Table sets;
  sets.addCategorical("Set", std::move(setName));
  sets.addNumeric("Row", std::move(rowIdx));
  sets.addNumeric("Y", std::move(response));
  data::writeCsv(sets, prefix + ".sets.csv");
}

Checkpoint loadCheckpoint(const std::string& prefix) {
  Checkpoint cp;

  // --- meta.
  const data::Table meta = data::readCsv(prefix + ".meta.csv");
  requireArg(meta.hasColumn("Key") && meta.hasColumn("Value"),
             "loadCheckpoint: malformed meta file");
  std::map<std::string, std::string> kv;
  const auto keys = meta.categorical("Key");
  const auto values = meta.categorical("Value");
  for (std::size_t i = 0; i < meta.numRows(); ++i) kv[keys[i]] = values[i];
  const auto get = [&](const std::string& k) {
    const auto it = kv.find(k);
    requireArg(it != kv.end(), "loadCheckpoint: missing meta key '" + k + "'");
    return it->second;
  };
  requireArg(get("Magic") == kMagic,
             "loadCheckpoint: not a checkpoint meta file");
  requireArg(parseWord(get("FormatVersion")) == kFormatVersion,
             "loadCheckpoint: unsupported checkpoint format version");
  cp.iteration = static_cast<int>(parseWord(get("Iteration")));
  cp.cumulativeCost = parseDouble(get("CumulativeCost"));
  // Absent in checkpoints written before incremental posterior reuse;
  // 0 means "no chain to rebuild" and reproduces the old resume behavior.
  if (const auto it = kv.find("TrainAtLastFit"); it != kv.end())
    cp.trainAtLastFit = static_cast<std::size_t>(parseWord(it->second));
  const std::size_t nTheta = parseWord(get("GpThetaCount"));
  cp.gpTheta.resize(nTheta);
  for (std::size_t i = 0; i < nTheta; ++i)
    cp.gpTheta[i] = parseDouble(get("GpTheta" + std::to_string(i)));
  for (std::size_t i = 0; i < cp.rngState.size(); ++i)
    cp.rngState[i] = parseWord(get("RngState" + std::to_string(i)));
  cp.hasRngState = true;

  // --- trace.
  // Traces legitimately carry non-finite values (a prior-only degraded
  // iteration records LML = -inf), so the load-time NaN/Inf guard is
  // relaxed for this one file; .meta.csv and .sets.csv stay strict.
  cp.history = historyFromTable(
      data::readCsv(prefix + ".trace.csv", {.rejectNonFinite = false}),
      prefix + ".trace.csv");

  // --- sets.
  const data::Table sets = data::readCsv(prefix + ".sets.csv");
  requireArg(sets.hasColumn("Set") && sets.hasColumn("Row") &&
                 sets.hasColumn("Y"),
             "loadCheckpoint: malformed sets file");
  const auto setName = sets.categorical("Set");
  const auto rowIdx = sets.numeric("Row");
  const auto response = sets.numeric("Y");
  for (std::size_t i = 0; i < sets.numRows(); ++i) {
    const auto row = static_cast<std::size_t>(
        indexCell(rowIdx, i, kMaxRowIndex, prefix + ".sets.csv", "Row"));
    const std::string& name = setName[i];
    if (name == "initial") {
      cp.partition.initial.push_back(row);
    } else if (name == "active") {
      cp.partition.active.push_back(row);
    } else if (name == "test") {
      cp.partition.test.push_back(row);
    } else if (name == "train") {
      cp.train.push_back(row);
      cp.trainY.push_back(response[i]);
    } else if (name == "pool") {
      cp.pool.push_back(row);
    } else if (name == "quarantined") {
      cp.quarantined.push_back(row);
    } else {
      throw std::invalid_argument("loadCheckpoint: unknown set '" + name +
                                  "'");
    }
  }
  requireArg(!cp.train.empty(), "loadCheckpoint: empty training set");
  return cp;
}

}  // namespace alperf::al
