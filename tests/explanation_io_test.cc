// Tests for full-explanation (de)serialization and the |F'| suggestion
// helper.

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "forest/gbdt_trainer.h"
#include "gef/explanation_io.h"
#include "gef/feature_selection.h"
#include "gef/local_explanation.h"

namespace gef {
namespace {

class ExplanationIoFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    Dataset data = MakeGPrimeDataset(2500, &rng);
    GbdtConfig fc;
    fc.num_trees = 50;
    fc.num_leaves = 8;
    forest_ = TrainGbdt(data, nullptr, fc).forest;
    GefConfig config;
    config.num_univariate = 4;
    config.num_bivariate = 2;
    config.num_samples = 3000;
    config.k = 24;
    explanation_ = ExplainForest(forest_, config);
    ASSERT_NE(explanation_, nullptr);
  }

  Forest forest_;
  std::unique_ptr<GefExplanation> explanation_;
};

TEST_F(ExplanationIoFixture, RoundTripPreservesStructure) {
  auto restored = ExplanationFromString(
      ExplanationToString(*explanation_));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const GefExplanation& r = **restored;
  EXPECT_EQ(r.selected_features, explanation_->selected_features);
  EXPECT_EQ(r.selected_pairs, explanation_->selected_pairs);
  EXPECT_EQ(r.univariate_term_index,
            explanation_->univariate_term_index);
  EXPECT_EQ(r.bivariate_term_index, explanation_->bivariate_term_index);
  EXPECT_EQ(r.is_categorical, explanation_->is_categorical);
  EXPECT_EQ(r.domains, explanation_->domains);
  EXPECT_DOUBLE_EQ(r.fidelity_rmse_test,
                   explanation_->fidelity_rmse_test);
  EXPECT_DOUBLE_EQ(r.fidelity_rmse_train,
                   explanation_->fidelity_rmse_train);
}

TEST_F(ExplanationIoFixture, RestoredExplanationPredictsIdentically) {
  auto restored = ExplanationFromString(
      ExplanationToString(*explanation_));
  ASSERT_TRUE(restored.ok());
  Rng rng(78);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> x(5);
    for (double& v : x) v = rng.Uniform();
    EXPECT_NEAR((*restored)->surrogate->PredictRaw(x),
                explanation_->surrogate->PredictRaw(x), 1e-12);
  }
}

TEST_F(ExplanationIoFixture, RestoredExplanationSupportsLocalExplain) {
  auto restored = ExplanationFromString(
      ExplanationToString(*explanation_));
  ASSERT_TRUE(restored.ok());
  std::vector<double> x = {0.3, 0.7, 0.45, 0.2, 0.9};
  LocalExplanation a = ExplainInstance(*explanation_, forest_, x);
  LocalExplanation b = ExplainInstance(**restored, forest_, x);
  ASSERT_EQ(a.terms.size(), b.terms.size());
  for (size_t t = 0; t < a.terms.size(); ++t) {
    EXPECT_EQ(a.terms[t].label, b.terms[t].label);
    EXPECT_NEAR(a.terms[t].contribution, b.terms[t].contribution, 1e-12);
    EXPECT_NEAR(a.terms[t].delta_plus, b.terms[t].delta_plus, 1e-12);
  }
}

TEST_F(ExplanationIoFixture, FileRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "gef_expl_test.txt")
          .string();
  ASSERT_TRUE(SaveExplanation(*explanation_, path).ok());
  auto restored = LoadExplanation(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->selected_features,
            explanation_->selected_features);
  std::remove(path.c_str());
}

TEST_F(ExplanationIoFixture, TruncatedInputRejected) {
  std::string text = ExplanationToString(*explanation_);
  EXPECT_FALSE(ExplanationFromString(text.substr(0, 40)).ok());
  // Cut inside the GAM section.
  EXPECT_FALSE(
      ExplanationFromString(text.substr(0, text.size() - 50)).ok());
}

TEST_F(ExplanationIoFixture, InconsistentListsRejected) {
  std::string text = ExplanationToString(*explanation_);
  // Drop one selected feature: list lengths disagree.
  size_t pos = text.find("selected 4");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("selected 4").size(), "selected 3");
  EXPECT_FALSE(ExplanationFromString(text).ok());
}

TEST(ExplanationIoTest, MissingFileIsIoError) {
  auto result = LoadExplanation("/nonexistent/e.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(SuggestNumUnivariateTest, CoversDominantGain) {
  // Feature 0 carries 90% of gain, feature 1 the rest.
  Tree t = Tree::Stump(0.0, 100);
  auto [l, r] = t.SplitLeaf(0, 0, 0.5, 9.0, 0.0, 0.0, 50, 50);
  t.SplitLeaf(l, 1, 0.2, 1.0, 0.0, 1.0, 25, 25);
  (void)r;
  std::vector<Tree> trees;
  trees.push_back(std::move(t));
  Forest forest(std::move(trees), 0.0, Objective::kRegression,
                Aggregation::kSum, 3, {});
  EXPECT_EQ(SuggestNumUnivariate(forest, 0.9), 1);
  EXPECT_EQ(SuggestNumUnivariate(forest, 0.95), 2);
  EXPECT_EQ(SuggestNumUnivariate(forest, 1.0), 2);  // zero-gain excluded
}

TEST(SuggestNumUnivariateTest, SplitlessForestSuggestsOne) {
  std::vector<Tree> trees;
  trees.push_back(Tree::Stump(1.0));
  Forest forest(std::move(trees), 0.0, Objective::kRegression,
                Aggregation::kSum, 4, {});
  EXPECT_EQ(SuggestNumUnivariate(forest), 1);
}

TEST(SuggestNumUnivariateTest, MatchesSparseSignalOnTrainedForest) {
  Rng rng(79);
  // 8 features, only 2 informative: suggestion should be small.
  Dataset data(8);
  for (int i = 0; i < 2000; ++i) {
    std::vector<double> x(8);
    for (double& v : x) v = rng.Uniform();
    data.AppendRow(x, 4.0 * x[1] + 3.0 * x[5]);
  }
  GbdtConfig fc;
  fc.num_trees = 40;
  fc.num_leaves = 8;
  Forest forest = TrainGbdt(data, nullptr, fc).forest;
  int suggested = SuggestNumUnivariate(forest, 0.95);
  EXPECT_LE(suggested, 4);
  EXPECT_GE(suggested, 2);
}

}  // namespace
}  // namespace gef
