#include "forest/threshold_index.h"

#include <algorithm>

namespace gef {

ThresholdIndex::ThresholdIndex(const Forest& forest)
    : thresholds_(forest.num_features()),
      raw_thresholds_(forest.num_features()) {
  for (const Tree& tree : forest.trees()) {
    for (const TreeNode& node : tree.nodes()) {
      if (!node.is_leaf()) {
        raw_thresholds_[node.feature].push_back(node.threshold);
      }
    }
  }
  for (size_t f = 0; f < thresholds_.size(); ++f) {
    std::sort(raw_thresholds_[f].begin(), raw_thresholds_[f].end());
    thresholds_[f] = raw_thresholds_[f];
    thresholds_[f].erase(
        std::unique(thresholds_[f].begin(), thresholds_[f].end()),
        thresholds_[f].end());
  }
}

void ForEachInternalNode(
    const Forest& forest,
    const std::function<void(const Tree&, const TreeNode&)>& visit) {
  for (const Tree& tree : forest.trees()) {
    for (const TreeNode& node : tree.nodes()) {
      if (!node.is_leaf()) visit(tree, node);
    }
  }
}

}  // namespace gef
