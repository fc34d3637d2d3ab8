// Robustness property tests for every text parser in the library: under
// random truncation, line deletion and byte corruption, a parser must
// return an error Status — never crash, abort or return a malformed
// object. (A crash here would be a denial-of-service vector in the
// paper's third-party scenario, where the model file crosses a trust
// boundary.)

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "forest/gbdt_trainer.h"
#include "forest/lightgbm_import.h"
#include "forest/serialization.h"
#include "gam/gam_io.h"
#include "gef/explainer.h"
#include "gef/explanation_io.h"
#include "stats/rng.h"

namespace gef {
namespace {

// Applies one random mutation to `text`.
std::string Mutate(const std::string& text, Rng* rng) {
  if (text.empty()) return text;
  std::string out = text;
  switch (rng->UniformInt(4)) {
    case 0:  // truncate at a random point
      out.resize(rng->UniformInt(out.size()));
      break;
    case 1: {  // corrupt a random byte
      size_t pos = rng->UniformInt(out.size());
      out[pos] = static_cast<char>('!' + rng->UniformInt(90));
      break;
    }
    case 2: {  // delete a random line
      std::vector<size_t> starts = {0};
      for (size_t i = 0; i < out.size(); ++i) {
        if (out[i] == '\n' && i + 1 < out.size()) starts.push_back(i + 1);
      }
      size_t which = rng->UniformInt(starts.size());
      size_t begin = starts[which];
      size_t end = out.find('\n', begin);
      if (end == std::string::npos) end = out.size();
      out.erase(begin, end - begin + 1);
      break;
    }
    case 3: {  // duplicate a random line
      size_t begin = rng->UniformInt(out.size());
      size_t line_start = out.rfind('\n', begin);
      line_start = line_start == std::string::npos ? 0 : line_start + 1;
      size_t line_end = out.find('\n', begin);
      if (line_end == std::string::npos) line_end = out.size();
      std::string line = out.substr(line_start, line_end - line_start);
      out.insert(line_end, "\n" + line);
      break;
    }
  }
  return out;
}

class ParserRobustnessFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(88);
    Dataset data = MakeGPrimeDataset(800, &rng);
    GbdtConfig fc;
    fc.num_trees = 10;
    fc.num_leaves = 4;
    forest_ = new Forest(TrainGbdt(data, nullptr, fc).forest);
    GefConfig config;
    config.num_univariate = 3;
    config.num_bivariate = 1;
    config.num_samples = 600;
    config.k = 8;
    explanation_ = ExplainForest(*forest_, config).release();
  }

  static Forest* forest_;
  static GefExplanation* explanation_;
};

Forest* ParserRobustnessFixture::forest_ = nullptr;
GefExplanation* ParserRobustnessFixture::explanation_ = nullptr;

TEST_F(ParserRobustnessFixture, ForestParserNeverCrashes) {
  std::string text = ForestToString(*forest_);
  Rng rng(101);
  int parsed_ok = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = Mutate(text, &rng);
    auto result = ForestFromString(mutated);
    if (result.ok()) {
      ++parsed_ok;  // benign mutation (e.g. duplicated trailing line)
      // Whatever parses must still predict without crashing.
      result->PredictRaw({0.5, 0.5, 0.5, 0.5, 0.5});
    }
  }
  // The vast majority of mutations must be rejected.
  EXPECT_LT(parsed_ok, 150);
}

TEST_F(ParserRobustnessFixture, GamParserNeverCrashes) {
  std::string text = explanation_->surrogate->SerializeText();
  Rng rng(102);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = Mutate(text, &rng);
    auto result = GamFromString(mutated);
    if (result.ok()) {
      result->PredictRaw({0.5, 0.5, 0.5, 0.5, 0.5});
    }
  }
}

TEST_F(ParserRobustnessFixture, ExplanationParserNeverCrashes) {
  std::string text = ExplanationToString(*explanation_);
  Rng rng(103);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = Mutate(text, &rng);
    auto result = ExplanationFromString(mutated);
    if (result.ok()) {
      (*result)->surrogate->PredictRaw({0.5, 0.5, 0.5, 0.5, 0.5});
    }
  }
}

TEST(ParserRobustnessTest, LightGbmParserNeverCrashes) {
  // Reuse the miniature model from the import test.
  const std::string model =
      "tree\nversion=v3\nnum_class=1\nmax_feature_idx=1\n"
      "objective=regression\nfeature_names=a b\n\n"
      "Tree=0\nnum_leaves=2\nsplit_feature=0\nsplit_gain=1\n"
      "threshold=0.5\ndecision_type=2\nleft_child=-1\nright_child=-2\n"
      "leaf_value=1 2\nleaf_count=5 5\ninternal_count=10\n\n"
      "end of trees\n";
  ASSERT_TRUE(ParseLightGbmModel(model).ok());
  Rng rng(104);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = Mutate(model, &rng);
    auto result = ParseLightGbmModel(mutated);
    if (result.ok()) {
      result->PredictRaw({0.5, 0.5});
    }
  }
}

// Targeted corruptions (beyond random mutation): each builds a model
// that parses field-by-field but violates a structural invariant, and
// asserts the deserialization-boundary validators reject it with a
// diagnostic instead of crashing or — worse — returning a model whose
// traversal would hang or read out of bounds.

TEST_F(ParserRobustnessFixture, OutOfRangeChildIndexRejected) {
  Tree bad;
  TreeNode root;
  root.feature = 0;
  root.threshold = 0.5;
  root.left = 1;
  root.right = 99;  // far past the node array
  bad.AddNode(root);
  bad.AddNode(TreeNode{});
  bad.AddNode(TreeNode{});
  Forest corrupt({std::move(bad)}, 0.0, Objective::kRegression,
                 Aggregation::kSum, forest_->num_features(), {});

  auto result = ForestFromString(ForestToString(corrupt));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("invalid forest model"),
            std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("out of range"),
            std::string::npos)
      << result.status().message();
}

TEST_F(ParserRobustnessFixture, CyclicTreeRejected) {
  // 0 -> (1, 2), 1 -> (0, 2): every field parses, but traversal would
  // loop forever. Tree::IsWellFormed alone does not catch this.
  Tree bad;
  TreeNode root;
  root.feature = 0;
  root.threshold = 0.5;
  root.left = 1;
  root.right = 2;
  bad.AddNode(root);
  TreeNode back;
  back.feature = 1;
  back.threshold = 0.25;
  back.left = 0;
  back.right = 2;
  bad.AddNode(back);
  bad.AddNode(TreeNode{});
  Forest corrupt({std::move(bad)}, 0.0, Objective::kRegression,
                 Aggregation::kSum, forest_->num_features(), {});

  auto result = ForestFromString(ForestToString(corrupt));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("cycle"), std::string::npos)
      << result.status().message();
}

TEST_F(ParserRobustnessFixture, NanThresholdRejected) {
  Tree bad;
  TreeNode root;
  root.feature = 0;
  root.threshold = std::numeric_limits<double>::quiet_NaN();
  root.left = 1;
  root.right = 2;
  bad.AddNode(root);
  bad.AddNode(TreeNode{});
  bad.AddNode(TreeNode{});
  Forest corrupt({std::move(bad)}, 0.0, Objective::kRegression,
                 Aggregation::kSum, forest_->num_features(), {});

  auto result = ForestFromString(ForestToString(corrupt));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("threshold is not finite"),
            std::string::npos)
      << result.status().message();
}

TEST_F(ParserRobustnessFixture, NanGamCoefficientRejected) {
  // Replace the first coefficient on the "beta" line with nan: the text
  // still parses (strtod accepts "nan"), so only ValidateGam stands
  // between the file and a model that predicts NaN everywhere.
  std::string text = explanation_->surrogate->SerializeText();
  size_t beta = text.find("\nbeta ");
  ASSERT_NE(beta, std::string::npos);
  size_t first = beta + 6;
  size_t end = text.find(' ', first);
  ASSERT_NE(end, std::string::npos);
  text.replace(first, end - first, "nan");

  auto result = GamFromString(text);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("invalid GAM model"),
            std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("coefficient 0 is not finite"),
            std::string::npos)
      << result.status().message();
}

TEST_F(ParserRobustnessFixture, TruncatedCoefficientBlockRejected) {
  // Drop the last coefficient from the "beta" line; the declared term
  // layout no longer matches the vector length.
  std::string text = explanation_->surrogate->SerializeText();
  size_t beta = text.find("\nbeta ");
  ASSERT_NE(beta, std::string::npos);
  size_t line_end = text.find('\n', beta + 1);
  ASSERT_NE(line_end, std::string::npos);
  size_t last_space = text.rfind(' ', line_end);
  ASSERT_GT(last_space, beta);
  text.erase(last_space, line_end - last_space);

  auto result = GamFromString(text);
  ASSERT_FALSE(result.ok());
}

TEST(ParserRobustnessTest, CompletelyRandomInputRejected) {
  Rng rng(105);
  for (int trial = 0; trial < 50; ++trial) {
    std::string garbage;
    size_t length = rng.UniformInt(400);
    for (size_t i = 0; i < length; ++i) {
      garbage += static_cast<char>(' ' + rng.UniformInt(95));
    }
    EXPECT_FALSE(ForestFromString(garbage).ok());
    EXPECT_FALSE(GamFromString(garbage).ok());
    EXPECT_FALSE(ExplanationFromString(garbage).ok());
    EXPECT_FALSE(ParseLightGbmModel(garbage).ok());
  }
}

}  // namespace
}  // namespace gef
