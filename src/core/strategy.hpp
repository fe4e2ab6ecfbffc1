#pragma once

/// \file strategy.hpp
/// Experiment-selection strategies (acquisition functions) for active
/// learning — the paper's Section V algorithms plus baselines and the
/// batch extension from its future-work discussion.
///
///   VarianceReduction    argmax σ_f(x)           (paper Sec. V-B3)
///   CostEfficiency       argmax σ_f(x) − µ_f(x)  (paper eq. 14; valid
///                        because µ is the log-cost response)
///   CostWeightedVariance argmax σ_f(x) / 10^µ(x) (linear-space variant)
///   RandomSelection      uniform baseline
///   Emcm                 Expected Model Change Maximization (Cai et al.),
///                        the bootstrap-ensemble baseline the paper argues
///                        against in Sec. III
///   FantasyBatch         greedy batch via fantasy variance updates (GP
///                        posterior variance is independent of y, so a
///                        batch can be planned exactly) — Sec. VI
///                        "experiments run in parallel" future work.

#include <memory>

#include "core/problem.hpp"
#include "gp/gp.hpp"
#include "gp/pool_predict_cache.hpp"

namespace alperf::al {

/// Everything a strategy may consult when picking the next experiment.
struct SelectionContext {
  const gp::GaussianProcess& gp;     ///< fitted on the current training set
  const RegressionProblem& problem;
  std::span<const std::size_t> candidates;  ///< problem-row indices in pool
  stats::Rng& rng;
  /// Campaign-level pool posterior cache (nullable). When set, scored
  /// strategies serve their main-GP pool predictions through it instead of
  /// re-deriving K_cross/V per call; served values are bit-identical to
  /// direct prediction, so strategies may mix paths freely (fantasy and
  /// ensemble GPs always predict directly).
  gp::PoolPredictCache* poolCache = nullptr;
  /// Number of in-flight (submitted, uncommitted) experiments at
  /// selection time. When nonzero (only at ExecutionConfig::maxInFlight >
  /// 1), ctx.gp is the *fantasy* posterior — already conditioned on the
  /// pending picks at their constant-liar values — so variance-based
  /// strategies need no special handling; strategies with their own
  /// lookahead may consult this to budget it. Always 0 at width 1.
  std::size_t numPending = 0;
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual std::string name() const = 0;

  /// Returns the *position within ctx.candidates* of the chosen
  /// experiment. ctx.candidates is non-empty.
  virtual std::size_t select(const SelectionContext& ctx) = 0;

  /// Picks `batchSize` distinct candidate positions for parallel
  /// execution. Default: top-k of the single-point acquisition.
  virtual std::vector<std::size_t> selectBatch(const SelectionContext& ctx,
                                               std::size_t batchSize);
};

using StrategyPtr = std::unique_ptr<Strategy>;

/// Factory type used by BatchRunner so each replicate gets a fresh
/// strategy instance.
using StrategyFactory = std::function<StrategyPtr()>;

/// Strategies whose acquisition is a per-candidate score (all but
/// FantasyBatch). Exposes the scores for inspection/testing.
class ScoredStrategy : public Strategy {
 public:
  std::size_t select(const SelectionContext& ctx) override;
  std::vector<std::size_t> selectBatch(const SelectionContext& ctx,
                                       std::size_t batchSize) override;

  /// Higher is better.
  virtual std::vector<double> scores(const SelectionContext& ctx) = 0;
};

/// argmax of the predictive standard deviation.
class VarianceReduction final : public ScoredStrategy {
 public:
  std::string name() const override { return "variance_reduction"; }
  std::vector<double> scores(const SelectionContext& ctx) override;
};

/// The paper's cost-aware criterion (eq. 14): argmax σ_f(x) − µ_f(x),
/// with the response interpreted as log-cost.
class CostEfficiency final : public ScoredStrategy {
 public:
  std::string name() const override { return "cost_efficiency"; }
  std::vector<double> scores(const SelectionContext& ctx) override;
};

/// Linear-space variant: σ_f(x) divided by the predicted linear cost
/// 10^µ(x) (assumes the response is log10 of the cost measure).
class CostWeightedVariance final : public ScoredStrategy {
 public:
  std::string name() const override { return "cost_weighted_variance"; }
  std::vector<double> scores(const SelectionContext& ctx) override;
};

/// Uniform-random baseline.
class RandomSelection final : public Strategy {
 public:
  std::string name() const override { return "random"; }
  std::size_t select(const SelectionContext& ctx) override;
};

/// Expected Model Change Maximization (Cai, Zhang & Zhou 2013): an
/// ensemble of K GPs trained on bootstrap resamples of the current
/// training set (hyperparameters frozen to the main GP's); score is
/// mean_k |f(x) − f_k(x)| · ‖x‖.
class Emcm final : public ScoredStrategy {
 public:
  explicit Emcm(int ensembleSize = 4);
  std::string name() const override { return "emcm"; }
  std::vector<double> scores(const SelectionContext& ctx) override;

 private:
  int ensembleSize_;
};

/// Greedy batch selection with fantasy updates: repeatedly take the
/// highest-variance candidate, then condition a copy of the GP on it
/// (using the predictive mean as a fantasy observation — the posterior
/// *variance* update is exact regardless) so the next pick avoids
/// redundant locations. Single-point select() is plain VarianceReduction.
class FantasyBatch final : public Strategy {
 public:
  std::string name() const override { return "fantasy_batch"; }
  std::size_t select(const SelectionContext& ctx) override;
  std::vector<std::size_t> selectBatch(const SelectionContext& ctx,
                                       std::size_t batchSize) override;
};

}  // namespace alperf::al
