#ifndef GEF_FOREST_THRESHOLD_INDEX_H_
#define GEF_FOREST_THRESHOLD_INDEX_H_

// The forest-structure view GEF consumes: per-feature sorted threshold
// lists V_i (the "most relevant points in the feature space according to
// the forest itself", paper Sec. 3.3) and per-node traversal helpers.

#include <functional>
#include <vector>

#include "forest/forest.h"

namespace gef {

/// Per-feature index of the split thresholds appearing in a forest.
class ThresholdIndex {
 public:
  explicit ThresholdIndex(const Forest& forest);

  size_t num_features() const { return thresholds_.size(); }

  /// Sorted list of distinct thresholds V_i for feature `f` (may be
  /// empty when the feature is never split on).
  const std::vector<double>& Thresholds(int feature) const {
    GEF_DCHECK(static_cast<size_t>(feature) < thresholds_.size());
    return thresholds_[feature];
  }

  /// All thresholds for `f` *with multiplicity* (one entry per split
  /// node) — the distribution Fig 3 visualizes via KDE, and what the
  /// quantile / k-means sampling strategies cluster.
  const std::vector<double>& ThresholdsWithMultiplicity(int feature) const {
    GEF_DCHECK(static_cast<size_t>(feature) < raw_thresholds_.size());
    return raw_thresholds_[feature];
  }

  /// Number of distinct thresholds |V_i| — the paper's categorical
  /// heuristic compares this against L (Sec. 3.5).
  size_t NumDistinctThresholds(int feature) const {
    return Thresholds(feature).size();
  }

 private:
  std::vector<std::vector<double>> thresholds_;      // distinct, sorted
  std::vector<std::vector<double>> raw_thresholds_;  // with multiplicity
};

/// Visits every internal node of every tree in `forest`.
void ForEachInternalNode(
    const Forest& forest,
    const std::function<void(const Tree&, const TreeNode&)>& visit);

}  // namespace gef

#endif  // GEF_FOREST_THRESHOLD_INDEX_H_
