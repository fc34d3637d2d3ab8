#include "forest/lightgbm_import.h"

#include <map>
#include <sstream>

#include "util/file_io.h"
#include "util/string_util.h"
#include "util/validate.h"

namespace gef {
namespace {

// One `key=value` section parsed into a key -> raw-value map. LightGBM
// separates the header and each tree by blank lines.
using Section = std::map<std::string, std::string>;

std::vector<Section> SplitSections(const std::string& text) {
  std::vector<Section> sections(1);
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) {
      if (!sections.back().empty()) sections.emplace_back();
      continue;
    }
    size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      // Section markers like "tree" / "end of trees" carry no '='.
      sections.back()[std::string(trimmed)] = "";
      continue;
    }
    sections.back()[std::string(trimmed.substr(0, eq))] =
        std::string(trimmed.substr(eq + 1));
  }
  if (sections.back().empty()) sections.pop_back();
  return sections;
}

bool ParseDoubleArray(const std::string& raw, std::vector<double>* out) {
  out->clear();
  for (const std::string& field : Split(raw, ' ')) {
    if (Trim(field).empty()) continue;
    double value = 0.0;
    if (!ParseDouble(field, &value)) return false;
    out->push_back(value);
  }
  return true;
}

bool ParseIntArray(const std::string& raw, std::vector<int>* out) {
  out->clear();
  for (const std::string& field : Split(raw, ' ')) {
    if (Trim(field).empty()) continue;
    int value = 0;
    if (!ParseInt(field, &value)) return false;
    out->push_back(value);
  }
  return true;
}

// Converts one LightGBM tree section. LightGBM stores internal nodes and
// leaves in separate arrays; child indices >= 0 point at internal nodes,
// negative ones encode leaf index ~child.
StatusOr<Tree> ConvertTree(const Section& section, int num_features) {
  auto find = [&section](const std::string& key) -> const std::string* {
    auto it = section.find(key);
    return it == section.end() ? nullptr : &it->second;
  };

  const std::string* num_leaves_raw = find("num_leaves");
  if (num_leaves_raw == nullptr) {
    return Status::ParseError("tree section missing num_leaves");
  }
  int num_leaves = 0;
  if (!ParseInt(*num_leaves_raw, &num_leaves) || num_leaves < 1) {
    return Status::ParseError("bad num_leaves: " + *num_leaves_raw);
  }

  std::vector<double> leaf_value;
  if (const std::string* raw = find("leaf_value")) {
    if (!ParseDoubleArray(*raw, &leaf_value)) {
      return Status::ParseError("bad leaf_value array");
    }
  }
  if (static_cast<int>(leaf_value.size()) != num_leaves) {
    return Status::ParseError("leaf_value size mismatch");
  }

  std::vector<double> leaf_count;
  if (const std::string* raw = find("leaf_count")) {
    ParseDoubleArray(*raw, &leaf_count);  // optional
  }

  if (num_leaves == 1) {
    return Tree::Stump(leaf_value[0],
                       leaf_count.empty()
                           ? 0
                           : static_cast<int>(leaf_count[0]));
  }

  const int num_internal = num_leaves - 1;
  std::vector<int> split_feature, left_child, right_child;
  std::vector<double> threshold, split_gain, internal_count,
      decision_type;
  if (const std::string* raw = find("split_feature")) {
    if (!ParseIntArray(*raw, &split_feature)) {
      return Status::ParseError("bad split_feature array");
    }
  }
  if (const std::string* raw = find("threshold")) {
    if (!ParseDoubleArray(*raw, &threshold)) {
      return Status::ParseError("bad threshold array");
    }
  }
  if (const std::string* raw = find("split_gain")) {
    ParseDoubleArray(*raw, &split_gain);  // optional
  }
  if (const std::string* raw = find("left_child")) {
    if (!ParseIntArray(*raw, &left_child)) {
      return Status::ParseError("bad left_child array");
    }
  }
  if (const std::string* raw = find("right_child")) {
    if (!ParseIntArray(*raw, &right_child)) {
      return Status::ParseError("bad right_child array");
    }
  }
  if (const std::string* raw = find("internal_count")) {
    ParseDoubleArray(*raw, &internal_count);  // optional
  }
  if (const std::string* raw = find("decision_type")) {
    ParseDoubleArray(*raw, &decision_type);  // optional
  }

  if (static_cast<int>(split_feature.size()) != num_internal ||
      static_cast<int>(threshold.size()) != num_internal ||
      static_cast<int>(left_child.size()) != num_internal ||
      static_cast<int>(right_child.size()) != num_internal) {
    return Status::ParseError("internal-node array size mismatch");
  }
  for (double d : decision_type) {
    // Bit 0 of decision_type flags a categorical split, which GEF's
    // `x <= v` predicate model cannot represent.
    if ((static_cast<int>(d) & 1) != 0) {
      return Status::InvalidArgument(
          "model uses categorical splits; one-hot encode the feature and "
          "retrain, or export with categorical_feature disabled");
    }
  }

  // Our layout: internal node i keeps index i; leaf j maps to
  // num_internal + j.
  Tree tree;
  for (int i = 0; i < num_internal; ++i) {
    if (split_feature[i] < 0 || split_feature[i] >= num_features) {
      return Status::ParseError("split_feature out of range");
    }
    TreeNode node;
    node.feature = split_feature[i];
    node.threshold = threshold[i];
    node.gain = i < static_cast<int>(split_gain.size()) ? split_gain[i]
                                                        : 0.0;
    auto map_child = [num_internal, num_leaves](int child) {
      return child >= 0 ? child : num_internal + (~child);
    };
    node.left = map_child(left_child[i]);
    node.right = map_child(right_child[i]);
    if (node.left >= num_internal + num_leaves ||
        node.right >= num_internal + num_leaves) {
      return Status::ParseError("child index out of range");
    }
    node.count = i < static_cast<int>(internal_count.size())
                     ? static_cast<int>(internal_count[i])
                     : 0;
    tree.AddNode(node);
  }
  for (int j = 0; j < num_leaves; ++j) {
    TreeNode leaf;
    leaf.value = leaf_value[j];
    leaf.count = j < static_cast<int>(leaf_count.size())
                     ? static_cast<int>(leaf_count[j])
                     : 0;
    tree.AddNode(leaf);
  }
  if (!tree.IsWellFormed()) {
    return Status::ParseError("malformed tree structure in model");
  }
  return tree;
}

}  // namespace

StatusOr<Forest> ParseLightGbmModel(const std::string& text) {
  std::vector<Section> sections = SplitSections(text);
  if (sections.empty() || sections[0].count("tree") == 0) {
    return Status::ParseError(
        "not a LightGBM text model (missing 'tree' header)");
  }
  const Section& header = sections[0];

  auto header_value = [&header](const std::string& key) -> std::string {
    auto it = header.find(key);
    return it == header.end() ? std::string() : it->second;
  };

  if (!header_value("num_class").empty()) {
    int num_class = 0;
    if (!ParseInt(header_value("num_class"), &num_class) ||
        num_class > 1) {
      return Status::InvalidArgument(
          "multiclass models are not supported; export one-vs-rest "
          "boosters separately");
    }
  }

  int max_feature_idx = -1;
  if (!ParseInt(header_value("max_feature_idx"), &max_feature_idx) ||
      max_feature_idx < 0) {
    return Status::ParseError("missing or bad max_feature_idx");
  }
  const int num_features = max_feature_idx + 1;

  std::vector<std::string> feature_names;
  for (const std::string& name :
       Split(header_value("feature_names"), ' ')) {
    if (!Trim(name).empty()) feature_names.emplace_back(Trim(name));
  }
  if (static_cast<int>(feature_names.size()) != num_features) {
    feature_names.clear();  // fall back to auto-generated names
  }

  std::string objective = header_value("objective");
  Objective mapped = StartsWith(objective, "binary")
                         ? Objective::kBinaryClassification
                         : Objective::kRegression;

  std::vector<Tree> trees;
  for (size_t s = 1; s < sections.size(); ++s) {
    const Section& section = sections[s];
    if (section.count("end of trees") > 0) break;
    if (section.count("num_leaves") == 0) continue;  // skip extras
    StatusOr<Tree> tree = ConvertTree(section, num_features);
    if (!tree.ok()) return tree.status();
    trees.push_back(std::move(tree).value());
  }
  if (trees.empty()) {
    return Status::ParseError("model contains no trees");
  }

  Forest forest(std::move(trees), /*init_score=*/0.0, mapped,
                Aggregation::kSum, static_cast<size_t>(num_features),
                std::move(feature_names));
  if (Status s = ValidateForest(forest); !s.ok()) {
    return Status::ParseError("invalid LightGBM model: " + s.message());
  }
  return forest;
}

StatusOr<Forest> LoadLightGbmModel(const std::string& path) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseLightGbmModel(text.value());
}

}  // namespace gef
