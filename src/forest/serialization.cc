#include "forest/serialization.h"

#include <sstream>

#include "util/file_io.h"
#include "util/hash.h"
#include "util/string_util.h"
#include "util/validate.h"

namespace gef {
namespace {

// Format:
//   gef_forest v1
//   objective regression|binary
//   aggregation sum|average
//   init_score <double>
//   num_features <int>
//   feature <name>            (num_features lines)
//   num_trees <int>
//   tree <num_nodes>
//   node <feature> <threshold> <gain> <left> <right> <value> <count>
//   ...
constexpr char kMagic[] = "gef_forest v1";

}  // namespace

std::string ForestToString(const Forest& forest) {
  std::ostringstream out;
  out.precision(17);
  out << kMagic << "\n";
  out << "objective "
      << (forest.objective() == Objective::kBinaryClassification
              ? "binary"
              : "regression")
      << "\n";
  out << "aggregation "
      << (forest.aggregation() == Aggregation::kAverage ? "average" : "sum")
      << "\n";
  out << "init_score " << forest.init_score() << "\n";
  out << "num_features " << forest.num_features() << "\n";
  for (const std::string& name : forest.feature_names()) {
    out << "feature " << name << "\n";
  }
  out << "num_trees " << forest.num_trees() << "\n";
  for (const Tree& tree : forest.trees()) {
    out << "tree " << tree.num_nodes() << "\n";
    for (const TreeNode& node : tree.nodes()) {
      out << "node " << node.feature << ' ' << node.threshold << ' '
          << node.gain << ' ' << node.left << ' ' << node.right << ' '
          << node.value << ' ' << node.count << "\n";
    }
  }
  return out.str();
}

StatusOr<Forest> ForestFromString(const std::string& text) {
  std::istringstream in(text);
  std::string line;

  auto next_line = [&](std::string* out_line) {
    while (std::getline(in, line)) {
      std::string_view trimmed = Trim(line);
      if (!trimmed.empty()) {
        *out_line = std::string(trimmed);
        return true;
      }
    }
    return false;
  };

  std::string current;
  if (!next_line(&current) || current != kMagic) {
    return Status::ParseError("bad or missing forest header");
  }

  auto expect_field = [&](const std::string& key,
                          std::string* value) -> Status {
    if (!next_line(&current)) {
      return Status::ParseError("truncated model: expected " + key);
    }
    std::vector<std::string> parts = Split(current, ' ');
    if (parts.size() < 2 || parts[0] != key) {
      return Status::ParseError("expected '" + key + "', got: " + current);
    }
    *value = parts[1];
    return Status::Ok();
  };

  std::string value;
  if (Status s = expect_field("objective", &value); !s.ok()) return s;
  Objective objective = value == "binary"
                            ? Objective::kBinaryClassification
                            : Objective::kRegression;
  if (value != "binary" && value != "regression") {
    return Status::ParseError("unknown objective: " + value);
  }

  if (Status s = expect_field("aggregation", &value); !s.ok()) return s;
  if (value != "sum" && value != "average") {
    return Status::ParseError("unknown aggregation: " + value);
  }
  Aggregation aggregation =
      value == "average" ? Aggregation::kAverage : Aggregation::kSum;

  if (Status s = expect_field("init_score", &value); !s.ok()) return s;
  double init_score = 0.0;
  if (!ParseDouble(value, &init_score)) {
    return Status::ParseError("bad init_score: " + value);
  }

  if (Status s = expect_field("num_features", &value); !s.ok()) return s;
  int num_features = 0;
  if (!ParseInt(value, &num_features) || num_features <= 0) {
    return Status::ParseError("bad num_features: " + value);
  }

  std::vector<std::string> names;
  for (int j = 0; j < num_features; ++j) {
    if (Status s = expect_field("feature", &value); !s.ok()) return s;
    names.push_back(value);
  }

  if (Status s = expect_field("num_trees", &value); !s.ok()) return s;
  int num_trees = 0;
  if (!ParseInt(value, &num_trees) || num_trees < 0) {
    return Status::ParseError("bad num_trees: " + value);
  }

  std::vector<Tree> trees;
  trees.reserve(static_cast<size_t>(num_trees));
  for (int t = 0; t < num_trees; ++t) {
    if (Status s = expect_field("tree", &value); !s.ok()) return s;
    int num_nodes = 0;
    if (!ParseInt(value, &num_nodes) || num_nodes <= 0) {
      return Status::ParseError("bad tree node count: " + value);
    }
    Tree tree;
    for (int k = 0; k < num_nodes; ++k) {
      if (!next_line(&current)) {
        return Status::ParseError("truncated tree");
      }
      std::vector<std::string> parts = Split(current, ' ');
      if (parts.size() != 8 || parts[0] != "node") {
        return Status::ParseError("bad node line: " + current);
      }
      TreeNode node;
      int left = 0, right = 0, count = 0, feature = 0;
      bool ok = ParseInt(parts[1], &feature) &&
                ParseDouble(parts[2], &node.threshold) &&
                ParseDouble(parts[3], &node.gain) &&
                ParseInt(parts[4], &left) && ParseInt(parts[5], &right) &&
                ParseDouble(parts[6], &node.value) &&
                ParseInt(parts[7], &count);
      if (!ok) return Status::ParseError("bad node fields: " + current);
      if (feature >= num_features) {
        return Status::ParseError("node feature out of range: " + current);
      }
      node.feature = feature;
      node.left = left;
      node.right = right;
      node.count = count;
      tree.AddNode(node);
    }
    trees.push_back(std::move(tree));
  }

  Forest forest(std::move(trees), init_score, objective, aggregation,
                static_cast<size_t>(num_features), std::move(names));
  if (Status s = ValidateForest(forest); !s.ok()) {
    return Status::ParseError("invalid forest model: " + s.message());
  }
  return forest;
}

Status SaveForest(const Forest& forest, const std::string& path) {
  return WriteFileAtomic(path, ForestToString(forest));
}

StatusOr<Forest> LoadForest(const std::string& path) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ForestFromString(text.value());
}

// Defined here rather than forest.cc: the hash is an identity over this
// file's canonical text format, so it lives (and changes) with it.
uint64_t Forest::ContentHash() const {
  return HashFnv1a64(ForestToString(*this));
}

}  // namespace gef
