#include "probes.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <ctime>

namespace albench {

namespace al = alperf::al;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

std::size_t CampaignLog::pickIndex(std::size_t row) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = pickOfRow_.find(row);
  return it == pickOfRow_.end() ? picks_ : it->second;
}

std::size_t CampaignLog::decisions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return picks_;
}

void CampaignLog::recordPicks(const std::vector<std::size_t>& rows) {
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t row : rows) pickOfRow_.emplace(row, picks_++);
}

namespace {

class ProbedStrategy final : public al::Strategy {
 public:
  ProbedStrategy(al::StrategyPtr inner, CampaignLog& log, bool timed)
      : inner_(std::move(inner)), log_(log), timed_(timed) {}

  std::string name() const override { return inner_->name(); }

  std::size_t select(const al::SelectionContext& ctx) override {
    log_.entryNs.push_back(nowNs());
    const std::size_t pos = inner_->select(ctx);
    finish(ctx, {ctx.candidates[pos]});
    return pos;
  }

  std::vector<std::size_t> selectBatch(const al::SelectionContext& ctx,
                                       std::size_t batchSize) override {
    log_.entryNs.push_back(nowNs());
    auto picks = inner_->selectBatch(ctx, batchSize);
    std::vector<std::size_t> rows;
    rows.reserve(picks.size());
    for (std::size_t pos : picks) rows.push_back(ctx.candidates[pos]);
    finish(ctx, rows);
    return picks;
  }

 private:
  void finish(const al::SelectionContext& ctx,
              const std::vector<std::size_t>& rows) {
    if (timed_) {
      log_.exitNs.push_back(nowNs());
      log_.candidates.push_back(ctx.candidates.size());
    }
    log_.recordPicks(rows);
  }

  al::StrategyPtr inner_;
  CampaignLog& log_;
  bool timed_;
};

}  // namespace

al::StrategyPtr Recorder::probe(al::StrategyPtr inner) {
  logs_.push_back(std::make_unique<CampaignLog>());
  return std::make_unique<ProbedStrategy>(std::move(inner), *logs_.back(),
                                          timed_);
}

al::StrategyFactory Recorder::wrap(al::StrategyFactory inner) {
  return [this, inner = std::move(inner)] { return probe(inner()); };
}

al::Oracle timedOracle(al::Oracle inner, OracleStats& stats) {
  return al::Oracle([inner = std::move(inner), &stats](std::size_t row) {
    const std::int64_t t0 = nowNs();
    alperf::Measurement m = inner.measureRow(row);
    stats.busyNs += nowNs() - t0;
    ++stats.attempts;
    if (m.status == alperf::MeasurementStatus::Failed) ++stats.failed;
    return m;
  });
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index) {
  // splitmix64 finalizer over a mix of the three inputs.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull +
                    stream * 0xbf58476d1ce4e5b9ull +
                    index * 0x94d049bb133111ebull + 0x2545f4914f6cdd1dull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double unitHash(std::uint64_t seed, std::uint64_t stream,
                std::uint64_t index) {
  return static_cast<double>(mixSeed(seed, stream, index) >> 11) * 0x1.0p-53;
}

}  // namespace albench
