#ifndef GEF_FOREST_GROWER_H_
#define GEF_FOREST_GROWER_H_

// Leaf-wise (best-first) tree growth with histogram-based split finding,
// the LightGBM strategy: features are pre-binned into quantile bins, each
// candidate leaf accumulates per-bin gradient/hessian histograms, and the
// leaf with the globally best split gain is expanded until `num_leaves`
// is reached or no split improves the loss.

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "forest/tree.h"
#include "stats/rng.h"

namespace gef {

/// Per-feature discretization of a training set into at most `max_bins`
/// bins. Split thresholds reported in grown trees are bin boundaries —
/// midpoints between adjacent distinct feature values, as in LightGBM.
/// NaN values are left out of the boundaries, and a NaN bins to 0.
class BinMapper {
 public:
  BinMapper(const Dataset& dataset, int max_bins);

  size_t num_features() const { return boundaries_.size(); }

  /// Number of bins for `feature` (boundaries + 1).
  int NumBins(int feature) const {
    return static_cast<int>(boundaries_[feature].size()) + 1;
  }

  /// Bin index of a raw value: the first bin whose upper boundary is
  /// >= value (the last bin is unbounded above).
  int BinFor(int feature, double value) const;

  /// The split threshold associated with "bin <= b goes left": the upper
  /// boundary of bin `b`. Requires b < NumBins(feature) - 1.
  double UpperBoundary(int feature, int bin) const;

  const std::vector<double>& boundaries(int feature) const {
    GEF_DCHECK(static_cast<size_t>(feature) < boundaries_.size());
    return boundaries_[feature];
  }

 private:
  // boundaries_[f] is sorted ascending; bin b covers
  // (boundaries_[f][b-1], boundaries_[f][b]].
  std::vector<std::vector<double>> boundaries_;
};

/// Column-major binned copy of a dataset.
class BinnedData {
 public:
  BinnedData(const Dataset& dataset, const BinMapper& mapper);

  int Bin(size_t row, size_t feature) const {
    return bins_[feature][row];
  }
  const std::vector<uint16_t>& Column(size_t feature) const {
    return bins_[feature];
  }
  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return bins_.size(); }

 private:
  std::vector<std::vector<uint16_t>> bins_;
  size_t num_rows_;
};

struct GrowerConfig {
  int num_leaves = 31;
  int min_samples_leaf = 20;
  double lambda_l2 = 1.0;    // L2 regularization on leaf values
  double min_gain = 1e-7;    // smallest admissible split gain
  double feature_fraction = 1.0;  // per-tree feature subsampling (RF mode)
};

/// Grows one tree against gradients/hessians (Newton boosting). The same
/// grower serves GBDT (g = dL/ds, h = d²L/ds²) and Random Forest
/// regression (g = -y, h = 1, so leaves hold mean targets).
///
/// Exactness contract: each per-bin histogram sum adds the node's rows
/// in their given order, and the search scans the features in ascending
/// order with a strict `>`, so the split is the first (feature, bin) of
/// greatest gain. Rows are routed by `bin <= b`, which for finite values
/// is `x <= UpperBoundary(b)`, the test Tree::Predict applies.
///
/// A grower keeps per-row buffers between Grow calls, so one instance
/// grows one tree at a time.
class TreeGrower {
 public:
  TreeGrower(const BinnedData& data, const BinMapper& mapper,
             const GrowerConfig& config);

  /// Grows a tree on `rows` (indices into the binned data; duplicates
  /// allowed, enabling bootstrap samples). `rng` is only consulted when
  /// feature_fraction < 1. When `leaf_of` is non-null it is resized to
  /// the binned row count and, for every row r in `rows`, (*leaf_of)[r]
  /// is set to the index of the leaf node r was grown into; other
  /// entries are unspecified.
  Tree Grow(const std::vector<double>& gradients,
            const std::vector<double>& hessians,
            const std::vector<int>& rows, Rng* rng,
            std::vector<int>* leaf_of = nullptr);

 private:
  struct SplitInfo {
    double gain = -1.0;
    int feature = -1;
    int bin = -1;            // "bin <= bin" goes left
    double left_value = 0.0;
    double right_value = 0.0;
    int left_count = 0;
    int right_count = 0;
    bool valid() const { return feature >= 0; }
  };

  /// {gradient, hessian} as one two-lane vector (GCC/Clang vector
  /// extension): a histogram bin takes both in one add, and each lane is
  /// the scalar IEEE operation, so sums are those of two scalar adds.
  using GradHess = double __attribute__((vector_size(16)));

  /// A leaf's contiguous range [begin, end) of rows_ / grad_hess_ and the
  /// {gradient, hessian} sums over it.
  struct NodeRows {
    int begin = 0;
    int end = 0;
    GradHess sum = {0.0, 0.0};
    int count() const { return end - begin; }
  };

  // The best split of `node` over `features` (ascending, each with at
  // least two bins).
  SplitInfo FindBestSplit(const NodeRows& node,
                          const std::vector<int>& features);

  // Adds rows[0, num_rows) to the histograms of kNumFeatures features in
  // one pass, so each row's index and {g, h} load once for all of them.
  // Feature k's bins start at offsets[k] of `sums` / `counts`; each bin
  // adds its rows in row order.
  template <size_t kNumFeatures>
  static void FillHistograms(const int* rows, const GradHess* grad_hess,
                             int num_rows, const uint16_t* const* columns,
                             const int* offsets, GradHess* sums,
                             int* counts);

  // Stable in-place partition of `node`'s range by `split`: rows with
  // bin <= split.bin keep their order at the front, the rest follow in
  // order. Returns the left child; its sums are accumulated in row order.
  NodeRows Partition(const NodeRows& node, const SplitInfo& split);

  double LeafValue(double sum_g, double sum_h) const {
    return -sum_g / (sum_h + config_.lambda_l2);
  }
  double LeafScore(double sum_g, double sum_h) const {
    return sum_g * sum_g / (sum_h + config_.lambda_l2);
  }

  const BinnedData& data_;
  const BinMapper& mapper_;
  GrowerConfig config_;

  // Row ids of the tree being grown; every leaf owns a contiguous range.
  std::vector<int> rows_;
  // {g, h} of rows_[i] at index i, partitioned alongside rows_.
  std::vector<GradHess> grad_hess_;
  // Right-hand halves during a partition.
  std::vector<int> scratch_rows_;
  std::vector<GradHess> scratch_grad_hess_;
  // Histograms of the features one FillHistograms pass covers.
  std::vector<GradHess> hist_sums_;
  std::vector<int> hist_counts_;
};

}  // namespace gef

#endif  // GEF_FOREST_GROWER_H_
