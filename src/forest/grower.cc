#include "forest/grower.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "obs/obs.h"

namespace gef {
namespace {

// Features whose histograms one pass over a node's rows fills.
constexpr size_t kFeaturesPerPass = 4;

}  // namespace

BinMapper::BinMapper(const Dataset& dataset, int max_bins) {
  GEF_CHECK_GT(max_bins, 1);
  GEF_CHECK_GT(dataset.num_rows(), 0u);
  boundaries_.resize(dataset.num_features());
  for (size_t f = 0; f < dataset.num_features(); ++f) {
    std::vector<double> values = dataset.Column(f);
    // NaN has no place in the order `<` sorts by; it bins to 0.
    values.erase(std::remove_if(values.begin(), values.end(),
                                [](double v) { return std::isnan(v); }),
                 values.end());
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());

    std::vector<double>& bounds = boundaries_[f];
    if (static_cast<int>(values.size()) <= max_bins) {
      // One bin per distinct value; boundaries at midpoints.
      bounds.reserve(values.size() > 0 ? values.size() - 1 : 0);
      for (size_t i = 0; i + 1 < values.size(); ++i) {
        bounds.push_back(0.5 * (values[i] + values[i + 1]));
      }
    } else {
      // Quantile binning over the distinct values: max_bins - 1 interior
      // boundaries at midpoints of the bracketing distinct values.
      bounds.reserve(static_cast<size_t>(max_bins) - 1);
      for (int b = 1; b < max_bins; ++b) {
        double pos = static_cast<double>(b) * static_cast<double>(
            values.size()) / static_cast<double>(max_bins);
        size_t idx = std::min(values.size() - 2,
                              static_cast<size_t>(pos));
        double boundary = 0.5 * (values[idx] + values[idx + 1]);
        if (bounds.empty() || boundary > bounds.back()) {
          bounds.push_back(boundary);
        }
      }
    }
  }
}

int BinMapper::BinFor(int feature, double value) const {
  const std::vector<double>& bounds = boundaries_[feature];
  return static_cast<int>(
      std::lower_bound(bounds.begin(), bounds.end(), value) -
      bounds.begin());
}

double BinMapper::UpperBoundary(int feature, int bin) const {
  const std::vector<double>& bounds = boundaries_[feature];
  GEF_CHECK(bin >= 0 && static_cast<size_t>(bin) < bounds.size());
  return bounds[bin];
}

BinnedData::BinnedData(const Dataset& dataset, const BinMapper& mapper)
    : num_rows_(dataset.num_rows()) {
  GEF_CHECK_EQ(dataset.num_features(), mapper.num_features());
  bins_.resize(dataset.num_features());
  for (size_t f = 0; f < dataset.num_features(); ++f) {
    GEF_CHECK_MSG(mapper.NumBins(static_cast<int>(f)) <= 65536,
                  "too many bins for uint16 storage");
    bins_[f].resize(num_rows_);
    const std::vector<double>& column = dataset.Column(f);
    for (size_t i = 0; i < num_rows_; ++i) {
      bins_[f][i] =
          static_cast<uint16_t>(mapper.BinFor(static_cast<int>(f),
                                              column[i]));
    }
  }
}

TreeGrower::TreeGrower(const BinnedData& data, const BinMapper& mapper,
                       const GrowerConfig& config)
    : data_(data), mapper_(mapper), config_(config) {
  GEF_CHECK_GE(config_.num_leaves, 1);
  GEF_CHECK_GE(config_.min_samples_leaf, 1);
  GEF_CHECK_GE(config_.lambda_l2, 0.0);
  GEF_CHECK(config_.feature_fraction > 0.0 &&
            config_.feature_fraction <= 1.0);
}

template <size_t kNumFeatures>
void TreeGrower::FillHistograms(const int* rows, const GradHess* grad_hess,
                                int num_rows, const uint16_t* const* columns,
                                const int* offsets, GradHess* sums,
                                int* counts) {
  for (int i = 0; i < num_rows; ++i) {
    const int row = rows[i];
    for (size_t k = 0; k < kNumFeatures; ++k) {
      const int bin = offsets[k] + columns[k][row];
      sums[bin] += grad_hess[i];
      ++counts[bin];
    }
  }
}

TreeGrower::SplitInfo TreeGrower::FindBestSplit(
    const NodeRows& node, const std::vector<int>& features) {
  SplitInfo best;
  const double parent_score = LeafScore(node.sum[0], node.sum[1]);
  const GradHess lambda = {config_.lambda_l2, config_.lambda_l2};
  const int total_count = node.count();
  const int* rows = rows_.data() + node.begin;
  const GradHess* grad_hess = grad_hess_.data() + node.begin;

  for (size_t first = 0; first < features.size();
       first += kFeaturesPerPass) {
    const size_t num_pass =
        std::min(kFeaturesPerPass, features.size() - first);
    // The pass's columns, and where each one's bins start in hist_*_.
    const uint16_t* columns[kFeaturesPerPass] = {};
    int offsets[kFeaturesPerPass + 1] = {};
    for (size_t k = 0; k < num_pass; ++k) {
      columns[k] = data_.Column(features[first + k]).data();
      offsets[k + 1] = offsets[k] + mapper_.NumBins(features[first + k]);
    }
    hist_sums_.assign(offsets[num_pass], GradHess{0.0, 0.0});
    hist_counts_.assign(offsets[num_pass], 0);
    GradHess* const sums = hist_sums_.data();
    int* const counts = hist_counts_.data();
    static_assert(kFeaturesPerPass == 4, "one FillHistograms case per size");
    switch (num_pass) {
      case 1:
        FillHistograms<1>(rows, grad_hess, total_count, columns, offsets,
                          sums, counts);
        break;
      case 2:
        FillHistograms<2>(rows, grad_hess, total_count, columns, offsets,
                          sums, counts);
        break;
      case 3:
        FillHistograms<3>(rows, grad_hess, total_count, columns, offsets,
                          sums, counts);
        break;
      default:
        FillHistograms<4>(rows, grad_hess, total_count, columns, offsets,
                          sums, counts);
        break;
    }

    for (size_t k = 0; k < num_pass; ++k) {
      const int num_bins = offsets[k + 1] - offsets[k];
      const GradHess* bin_sums = sums + offsets[k];
      const int* bin_counts = counts + offsets[k];
      GradHess left = {0.0, 0.0};
      int left_c = 0;
      for (int b = 0; b + 1 < num_bins; ++b) {
        left += bin_sums[b];
        left_c += bin_counts[b];
        int right_c = total_count - left_c;
        if (left_c < config_.min_samples_leaf) continue;
        if (right_c < config_.min_samples_leaf) break;
        const GradHess right = node.sum - left;
        // LeafScore of both sides in one two-lane multiply and divide.
        const GradHess g = {left[0], right[0]};
        const GradHess h = {left[1], right[1]};
        const GradHess score = g * g / (h + lambda);
        double gain = 0.5 * (score[0] + score[1] - parent_score);
        if (gain > best.gain) {
          best.gain = gain;
          best.feature = features[first + k];
          best.bin = b;
          best.left_value = LeafValue(left[0], left[1]);
          best.right_value = LeafValue(right[0], right[1]);
          best.left_count = left_c;
          best.right_count = right_c;
        }
      }
    }
  }
  return best;
}

TreeGrower::NodeRows TreeGrower::Partition(const NodeRows& node,
                                           const SplitInfo& split) {
  const uint16_t* column = data_.Column(split.feature).data();
  int* const rows = rows_.data();
  GradHess* const grad_hess = grad_hess_.data();
  NodeRows left;
  left.begin = node.begin;
  int num_left = node.begin;  // write cursor; never passes the read one
  int num_right = 0;
  for (int i = node.begin; i < node.end; ++i) {
    const int row = rows[i];
    const GradHess pair = grad_hess[i];
    if (column[row] <= split.bin) {
      rows[num_left] = row;
      grad_hess[num_left] = pair;
      left.sum += pair;
      ++num_left;
    } else {
      scratch_rows_[num_right] = row;
      scratch_grad_hess_[num_right] = pair;
      ++num_right;
    }
  }
  std::copy(scratch_rows_.begin(), scratch_rows_.begin() + num_right,
            rows + num_left);
  std::copy(scratch_grad_hess_.begin(),
            scratch_grad_hess_.begin() + num_right, grad_hess + num_left);
  left.end = num_left;
  return left;
}

Tree TreeGrower::Grow(const std::vector<double>& gradients,
                      const std::vector<double>& hessians,
                      const std::vector<int>& rows, Rng* rng,
                      std::vector<int>* leaf_of) {
  GEF_CHECK_EQ(gradients.size(), data_.num_rows());
  GEF_CHECK_EQ(hessians.size(), data_.num_rows());
  GEF_CHECK(!rows.empty());

  // The features this tree searches, ascending: all of them, or a
  // per-tree sample (Random Forest mode). A one-bin feature cannot split.
  const size_t num_features = data_.num_features();
  std::vector<uint8_t> in_tree(num_features, 1);
  if (config_.feature_fraction < 1.0) {
    GEF_CHECK(rng != nullptr);
    size_t keep = std::max<size_t>(
        1, static_cast<size_t>(std::round(config_.feature_fraction *
                                          num_features)));
    in_tree.assign(num_features, 0);
    for (size_t f : rng->SampleWithoutReplacement(num_features, keep)) {
      in_tree[f] = 1;
    }
  }
  std::vector<int> features;
  for (size_t f = 0; f < num_features; ++f) {
    const int feature = static_cast<int>(f);
    if (in_tree[f] && mapper_.NumBins(feature) >= 2) {
      features.push_back(feature);
    }
  }

  // Gather every row's {g, h} once, in row order; each node's rows and
  // gradients are then one contiguous slice of rows_ / grad_hess_.
  const int num_rows = static_cast<int>(rows.size());
  rows_.assign(rows.begin(), rows.end());
  grad_hess_.resize(rows.size());
  scratch_rows_.resize(rows.size());
  scratch_grad_hess_.resize(rows.size());
  NodeRows root;
  root.end = num_rows;
  for (int i = 0; i < num_rows; ++i) {
    const int row = rows[i];
    grad_hess_[i] = GradHess{gradients[row], hessians[row]};
    root.sum += grad_hess_[i];
  }

  Tree tree = Tree::Stump(LeafValue(root.sum[0], root.sum[1]), num_rows);
  // node_rows[i] is the row range of tree node i.
  std::vector<NodeRows> node_rows = {root};

  struct Candidate {
    int leaf;                 // node index in tree
    NodeRows rows;
    SplitInfo split;
  };
  // Max-heap over candidate split gains; indices into `candidates`.
  std::vector<Candidate> candidates;
  auto gain_of = [&candidates](int i) {
    return candidates[i].split.gain;
  };
  auto cmp = [&gain_of](int a, int b) { return gain_of(a) < gain_of(b); };
  std::priority_queue<int, std::vector<int>, decltype(cmp)> heap(cmp);

  auto enqueue = [&](int leaf) {
    const NodeRows& leaf_rows = node_rows[leaf];
    if (leaf_rows.count() < 2 * config_.min_samples_leaf) {
      return;  // cannot produce two admissible children
    }
    SplitInfo split = FindBestSplit(leaf_rows, features);
    if (!split.valid() || split.gain <= config_.min_gain) return;
    candidates.push_back({leaf, leaf_rows, split});
    heap.push(static_cast<int>(candidates.size()) - 1);
  };

  enqueue(0);

  int num_leaves = 1;
  double tree_gain = 0.0;
  while (num_leaves < config_.num_leaves && !heap.empty()) {
    const Candidate cand = candidates[heap.top()];
    heap.pop();
    const SplitInfo& split = cand.split;

    double threshold = mapper_.UpperBoundary(split.feature, split.bin);
    auto [left, right] = tree.SplitLeaf(
        cand.leaf, split.feature, threshold, split.gain, split.left_value,
        split.right_value, split.left_count, split.right_count);
    ++num_leaves;
    tree_gain += split.gain;

    NodeRows left_rows = Partition(cand.rows, split);
    GEF_DCHECK(left_rows.count() == split.left_count);
    NodeRows right_rows;
    right_rows.begin = left_rows.end;
    right_rows.end = cand.rows.end;
    right_rows.sum = cand.rows.sum - left_rows.sum;
    node_rows.resize(tree.num_nodes());
    node_rows[left] = left_rows;
    node_rows[right] = right_rows;

    enqueue(left);
    enqueue(right);
  }

  if (leaf_of != nullptr) {
    leaf_of->resize(data_.num_rows());
    for (size_t node = 0; node < tree.num_nodes(); ++node) {
      if (!tree.node(node).is_leaf()) continue;
      for (int i = node_rows[node].begin; i < node_rows[node].end; ++i) {
        (*leaf_of)[rows_[i]] = static_cast<int>(node);
      }
    }
  }

  GEF_OBS_COUNTER_ADD("grower.splits", num_leaves - 1);
  GEF_OBS_COUNTER_ADD("grower.split_gain_total", tree_gain);
  return tree;
}

}  // namespace gef
