#pragma once

/// \file gbdt.hpp
/// Gradient-boosted regression trees (the reproduction's XGBoost):
/// pre-sorted exact or histogram training, flat SoA batched inference,
/// warm-start `fit_more`.  Invariant: training is deterministic from the
/// config seed, and `fit`/`fit_more` sequences continue one RNG stream —
/// also across save/load.  Collaborators: XgbCostModel, gbdt_io, experience.

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace harl {

/// How regression trees search for split thresholds.
enum class SplitMode {
  /// Exact greedy over pre-sorted feature columns.  Columns are sorted once
  /// per fit (ties broken by row index) and index-partitioned down the tree,
  /// so every node scans its samples in O(n) per feature instead of
  /// re-sorting them.  Bit-identical by construction to the per-node
  /// re-sorting algorithm with the same pinned orderings (tie-break by row
  /// index, stable partition), retained as the test oracle
  /// `reference::ReferenceGbdt` (tests/support/gbdt_reference.*); the
  /// original left those orders to std::sort/std::partition internals, which
  /// on tied feature values could pick equivalent splits in a different
  /// float accumulation order.
  kExact,
  /// Fixed-bin quantile histograms: candidate thresholds are at most
  /// `histogram_bins` per-feature quantile cuts computed once per fit, and
  /// each node accumulates (gradient, count) histograms in one O(n * d)
  /// pass.  Fully deterministic; approximate thresholds.  The right choice
  /// for large sample counts where exact scans dominate.
  kHistogram,
};

/// Configuration of the gradient-boosted regression-tree learner.
/// Defaults approximate the XGBoost settings Ansor uses for its cost model
/// (shallow trees, shrinkage, mild row/column subsampling, L2 leaf
/// regularization).
struct GbdtConfig {
  int num_trees = 50;
  int max_depth = 6;
  double learning_rate = 0.3;
  int min_samples_leaf = 2;
  double row_subsample = 0.9;
  double col_subsample = 0.9;
  double l2_lambda = 1.0;
  std::uint64_t seed = 7;
  SplitMode split_mode = SplitMode::kExact;
  int histogram_bins = 64;  ///< max quantile cuts per feature (kHistogram)
};

/// A single regression tree fit on residuals with exact greedy splits
/// (variance-gain criterion with L2 regularization on leaf values).
/// Kept as a standalone unit for tests; `Gbdt` shares the per-fit pre-sorted
/// columns across trees instead of going through this entry point.
class RegressionTree {
 public:
  struct Node {
    int feature = -1;       ///< -1 for leaves
    double threshold = 0;   ///< go left when x[feature] <= threshold
    double value = 0;       ///< leaf prediction
    int left = -1;
    int right = -1;
  };

  /// Fit on rows `idx` of X (row-major, `num_features` wide) against
  /// gradients g (residuals for squared loss).
  void fit(const std::vector<double>& x, int num_features,
           const std::vector<double>& g, const std::vector<int>& idx,
           const GbdtConfig& cfg, Rng& rng);

  double predict(const double* row) const;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<Node>& nodes() const { return nodes_; }
  std::vector<Node>& mutable_nodes() { return nodes_; }

 private:
  std::vector<Node> nodes_;
};

/// Gradient-boosted ensemble for least-squares regression.
///
/// This is the reproduction's XGBoost: the learned cost model (paper
/// Section 4.3) is an instance trained online on measured schedules.
///
/// Training uses pre-sorted feature columns (or fixed-bin histograms, see
/// `SplitMode`), computed once per `fit`.  Inference runs over all trees
/// packed into one contiguous SoA node array (feature / threshold-or-value /
/// first-child, children adjacent), so `predict` chases no per-tree pointers
/// and `predict_batch` streams a row-major matrix through the flat forest.
class Gbdt {
 public:
  explicit Gbdt(GbdtConfig cfg = {});

  /// Fit from scratch on row-major X (n x num_features) and targets y.
  void fit(const std::vector<double>& x, int num_features, const std::vector<double>& y);

  /// Warm start: keep the current ensemble and boost `extra_trees` more
  /// trees against the residuals of (possibly grown or re-labeled) data.
  /// The internal RNG stream continues where `fit` left off, so a
  /// fit/fit_more sequence is deterministic from the seed.  Falls back to a
  /// full `fit` when untrained or the feature width changed.
  void fit_more(const std::vector<double>& x, int num_features,
                const std::vector<double>& y, int extra_trees);

  /// Prediction for one row (must have num_features entries).
  double predict(const double* row) const;

  /// Predictions for `n` rows of a row-major matrix (n x num_features).
  /// Bit-identical to calling `predict` per row.
  void predict_batch(const double* rows, std::size_t n, double* out) const;

  bool trained() const { return num_trees_fit_ > 0; }
  int num_features() const { return num_features_; }
  int num_trees_fit() const { return num_trees_fit_; }
  int total_nodes() const { return static_cast<int>(flat_feature_.size()); }
  const GbdtConfig& config() const { return cfg_; }

  // ---- serialization support (cost/gbdt_io.hpp) -----------------------
  // The flat forest plus base score and learning rate is the complete
  // inference state; the RNG words make a saved model's `fit_more` stream
  // continue exactly where the in-memory model's would have.
  double base_score() const { return base_score_; }
  const std::vector<int>& flat_feature() const { return flat_feature_; }
  const std::vector<double>& flat_thresh() const { return flat_thresh_; }
  const std::vector<int>& flat_child() const { return flat_child_; }
  const std::vector<int>& flat_root() const { return flat_root_; }
  const Rng& rng() const { return rng_; }

  /// Restore a fitted ensemble from serialized state.  The caller is
  /// responsible for structural validity (gbdt_from_json checks child/root
  /// indices before calling).  Running predictions (`pred_`) are dropped;
  /// a later `fit_more` re-baselines them from the restored forest.
  void restore(GbdtConfig cfg, int num_features, int num_trees, double base_score,
               std::vector<int> flat_feature, std::vector<double> flat_thresh,
               std::vector<int> flat_child, std::vector<int> flat_root,
               std::uint64_t rng_state, std::uint64_t rng_inc);

 private:
  /// Boost `rounds` trees against y - pred_, appending to the flat forest.
  void boost(const std::vector<double>& x, int num_features,
             const std::vector<double>& y, int rounds);
  /// Append one tree's nodes to the flat SoA arrays (children adjacent).
  void flatten(const RegressionTree& tree);
  double predict_flat(const double* row) const;

  GbdtConfig cfg_;
  Rng rng_{0};             ///< boosting stream, re-seeded by fit()
  double base_score_ = 0;
  int num_features_ = 0;
  int num_trees_fit_ = 0;
  std::vector<double> pred_;  ///< running ensemble prediction per train row

  // Flat forest (SoA).  Internal node i: flat_feature_[i] >= 0,
  // flat_thresh_[i] is the threshold, children at flat_child_[i] and
  // flat_child_[i] + 1.  Leaf: flat_feature_[i] < 0, flat_thresh_[i] is the
  // leaf value.
  std::vector<int> flat_feature_;
  std::vector<double> flat_thresh_;
  std::vector<int> flat_child_;
  std::vector<int> flat_root_;  ///< root node index of each tree
};

}  // namespace harl
