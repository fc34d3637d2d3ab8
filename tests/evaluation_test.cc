// Tests for the explanation evaluation module.

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "forest/gbdt_trainer.h"
#include "gef/evaluation.h"

namespace gef {
namespace {

class EvaluationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(111);
    Dataset data = MakeGPrimeDataset(3000, &rng);
    GbdtConfig fc;
    fc.num_trees = 80;
    fc.num_leaves = 16;
    fc.learning_rate = 0.15;
    forest_ = TrainGbdt(data, nullptr, fc).forest;
    GefConfig config;
    config.num_univariate = 5;
    config.num_samples = 4000;
    config.k = 32;
    explanation_ = ExplainForest(forest_, config);
    ASSERT_NE(explanation_, nullptr);
    Rng probe_rng(112);
    probe_ = MakeGPrimeDataset(500, &probe_rng);
  }

  Forest forest_;
  std::unique_ptr<GefExplanation> explanation_;
  Dataset probe_;
};

TEST_F(EvaluationFixture, FidelityReportIsConsistent) {
  FidelityReport report =
      EvaluateFidelity(*explanation_, forest_, probe_);
  EXPECT_EQ(report.num_rows, 500u);
  EXPECT_GT(report.rmse, 0.0);
  EXPECT_LE(report.mae, report.rmse);  // MAE <= RMSE always
  EXPECT_GT(report.r2, 0.95);          // additive target: near-perfect
  EXPECT_LT(report.rmse, 0.3);
}

TEST_F(EvaluationFixture, FidelityDegradesWithFewerComponents) {
  GefConfig coarse;
  coarse.num_univariate = 1;
  coarse.num_samples = 4000;
  coarse.k = 32;
  auto weak = ExplainForest(forest_, coarse);
  ASSERT_NE(weak, nullptr);
  FidelityReport full = EvaluateFidelity(*explanation_, forest_, probe_);
  FidelityReport partial = EvaluateFidelity(*weak, forest_, probe_);
  EXPECT_GT(partial.rmse, full.rmse);
  EXPECT_LT(partial.r2, full.r2);
}

TEST_F(EvaluationFixture, ShapTrendAgreementHighOnAdditiveTarget) {
  Dataset small = probe_.Subset({0,  5,  10, 15, 20, 25, 30, 35, 40,
                                 45, 50, 55, 60, 65, 70, 75, 80, 85,
                                 90, 95});
  std::vector<double> agreement =
      ShapTrendAgreement(*explanation_, forest_, small);
  ASSERT_EQ(agreement.size(), 5u);
  for (double corr : agreement) {
    EXPECT_GT(corr, 0.8);
    EXPECT_LE(corr, 1.0 + 1e-12);
  }
}

TEST_F(EvaluationFixture, PerComponentFidelityTracksForestPd) {
  Dataset background =
      probe_.Subset({0, 7, 14, 21, 28, 35, 42, 49, 56, 63, 70, 77, 84,
                     91, 98, 105, 112, 119, 126, 133, 140, 147, 154,
                     161, 168, 175, 182, 189, 196, 203});
  auto components =
      PerComponentFidelity(*explanation_, forest_, background);
  ASSERT_EQ(components.size(), 5u);
  // g' is additive, so every component should track its PD closely.
  for (const ComponentFidelity& c : components) {
    EXPECT_GT(c.correlation, 0.95) << "feature " << c.feature;
    EXPECT_LT(c.curve_rmse, 0.15) << "feature " << c.feature;
  }
}

TEST_F(EvaluationFixture, MonotonicityDetection) {
  // x1 (index 0) drives the identity component -> monotone increasing;
  // x5 (index 4) drives 2/(x+1) -> monotone decreasing; x2 (index 1)
  // drives sin(20x) -> non-monotone.
  for (size_t i = 0; i < explanation_->selected_features.size(); ++i) {
    int feature = explanation_->selected_features[i];
    int direction =
        ComponentMonotonicity(*explanation_, i, 41, /*tolerance=*/0.02);
    if (feature == 0) {
      EXPECT_EQ(direction, 1) << "x1";
    }
    if (feature == 4) {
      EXPECT_EQ(direction, -1) << "x5";
    }
    if (feature == 1) {
      EXPECT_EQ(direction, 0) << "x2";
    }
  }
}

TEST_F(EvaluationFixture, ClassificationFidelityInProbabilitySpace) {
  Rng rng(113);
  Dataset data(std::vector<std::string>{"x1", "x2"});
  for (int i = 0; i < 2000; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    data.AppendRow({a, b}, a + b > 1.0 ? 1.0 : 0.0);
  }
  GbdtConfig fc;
  fc.objective = Objective::kBinaryClassification;
  fc.num_trees = 40;
  fc.num_leaves = 8;
  Forest forest = TrainGbdt(data, nullptr, fc).forest;
  GefConfig config;
  config.num_univariate = 2;
  config.num_samples = 2000;
  config.k = 16;
  auto explanation = ExplainForest(forest, config);
  ASSERT_NE(explanation, nullptr);
  FidelityReport report = EvaluateFidelity(*explanation, forest, data);
  // Probability-space RMSE must be bounded by 1 by construction.
  EXPECT_LT(report.rmse, 1.0);
  EXPECT_GT(report.r2, 0.5);
}

}  // namespace
}  // namespace gef
