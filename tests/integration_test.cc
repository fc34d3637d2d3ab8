// End-to-end integration tests across the full stack: the paper's data-
// free scenario (serialize forest, drop the data, explain from the model
// file alone), the GEF-vs-SHAP consistency claim, and the Random Forest
// future-work extension.

#include <cmath>

#include <gtest/gtest.h>

#include "data/census.h"
#include "data/split.h"
#include "data/superconductivity.h"
#include "data/synthetic.h"
#include "explain/treeshap.h"
#include "forest/gbdt_trainer.h"
#include "forest/random_forest_trainer.h"
#include "forest/serialization.h"
#include "gef/explainer.h"
#include "gef/local_explanation.h"
#include "stats/descriptive.h"
#include "stats/metrics.h"

namespace gef {
namespace {

TEST(IntegrationTest, DataFreeExplanationFromSerializedModel) {
  // Train, serialize, destroy the training data, deserialize, explain:
  // the paper's third-party certification scenario.
  std::string model_text;
  {
    Rng rng(901);
    Dataset data = MakeGPrimeDataset(3000, &rng);
    GbdtConfig config;
    config.num_trees = 80;
    config.num_leaves = 16;
    config.learning_rate = 0.15;
    Forest forest = TrainGbdt(data, nullptr, config).forest;
    model_text = ForestToString(forest);
    // `data` and `forest` go out of scope: only the text survives.
  }

  auto forest = ForestFromString(model_text);
  ASSERT_TRUE(forest.ok());
  GefConfig config;
  config.num_univariate = 5;
  config.num_samples = 4000;
  config.k = 32;
  auto explanation = ExplainForest(*forest, config);
  ASSERT_NE(explanation, nullptr);
  EXPECT_LT(explanation->fidelity_rmse_test, 0.3);

  // The explanation still reconstructs the original generators even
  // though neither the data nor the original in-memory model survive.
  Rng probe_rng(902);
  std::vector<double> gam_out, true_out;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x(5);
    for (double& v : x) v = probe_rng.Uniform();
    gam_out.push_back(explanation->surrogate->Predict(x));
    true_out.push_back(GPrime(x));
  }
  EXPECT_GT(RSquared(gam_out, true_out), 0.9);
}

TEST(IntegrationTest, GefAndShapAgreeOnFeatureTrends) {
  // Sec. 5.3's consistency claim: GEF spline trends match SHAP
  // dependence trends. Correlate s_j(v) with the SHAP values of feature
  // j across instances, binned by feature value.
  Rng rng(903);
  Dataset data = MakeGPrimeDataset(2500, &rng);
  GbdtConfig fc;
  fc.num_trees = 80;
  fc.num_leaves = 16;
  fc.learning_rate = 0.15;
  Forest forest = TrainGbdt(data, nullptr, fc).forest;

  GefConfig config;
  config.num_samples = 4000;
  config.k = 32;
  auto explanation = ExplainForest(forest, config);
  ASSERT_NE(explanation, nullptr);

  Dataset sample = data.Subset(rng.SampleWithoutReplacement(2500, 150));
  GlobalShapSummary shap = ComputeGlobalShap(forest, sample);

  for (size_t i = 0; i < explanation->selected_features.size(); ++i) {
    int feature = explanation->selected_features[i];
    int term = explanation->univariate_term_index[i];
    // GEF spline at each sample point vs SHAP value at that point.
    std::vector<double> spline_vals, shap_vals;
    std::vector<double> x(5, 0.5);
    for (size_t s = 0; s < shap.feature_values[feature].size(); ++s) {
      x[feature] = shap.feature_values[feature][s];
      spline_vals.push_back(
          explanation->surrogate->TermContribution(term, x));
      shap_vals.push_back(shap.shap_values[feature][s]);
    }
    EXPECT_GT(PearsonCorrelation(spline_vals, shap_vals), 0.8)
        << "feature x" << feature + 1;
  }
}

TEST(IntegrationTest, GefExplainsRandomForests) {
  // The future-work extension: nothing in GEF assumes GBDT.
  Rng rng(904);
  Dataset data = MakeGPrimeDataset(3000, &rng);
  RandomForestConfig rf;
  rf.num_trees = 60;
  rf.num_leaves = 64;
  rf.min_samples_leaf = 3;
  Forest forest = TrainRandomForest(data, rf);

  GefConfig config;
  config.num_samples = 4000;
  config.k = 32;
  auto explanation = ExplainForest(forest, config);
  ASSERT_NE(explanation, nullptr);
  EXPECT_LT(explanation->fidelity_rmse_test, 0.35);
}

TEST(IntegrationTest, SuperconductivityPipelineSelectsDominantFeatures) {
  Rng rng(905);
  Dataset data = MakeSuperconductivityDataset(4000, &rng);
  auto split = SplitTrainTest(data, 0.2, &rng);
  GbdtConfig fc;
  fc.num_trees = 80;
  fc.num_leaves = 32;
  fc.learning_rate = 0.15;
  fc.min_samples_leaf = 20;
  Forest forest = TrainGbdt(split.train, nullptr, fc).forest;

  GefConfig config;
  config.num_univariate = 7;
  config.num_samples = 5000;
  config.k = 48;
  config.sampling = SamplingStrategy::kEquiSize;
  auto explanation = ExplainForest(forest, config);
  ASSERT_NE(explanation, nullptr);
  // WEAM drives the largest effect in the generator; it must be in F'.
  EXPECT_NE(std::find(explanation->selected_features.begin(),
                      explanation->selected_features.end(),
                      kWeamFeatureIndex),
            explanation->selected_features.end());
  // Surrogate fidelity is decent relative to the ~40 K output spread.
  EXPECT_LT(explanation->fidelity_rmse_test, 8.0);
}

TEST(IntegrationTest, CensusClassificationPipeline) {
  Rng rng(906);
  Dataset data = MakeCensusDatasetEncoded(4000, &rng);
  GbdtConfig fc;
  fc.objective = Objective::kBinaryClassification;
  fc.num_trees = 60;
  fc.num_leaves = 16;
  fc.learning_rate = 0.15;
  Forest forest = TrainGbdt(data, nullptr, fc).forest;

  GefConfig config;
  config.num_univariate = 5;
  config.num_bivariate = 1;
  config.num_samples = 4000;
  config.k = 24;
  config.sampling = SamplingStrategy::kKQuantile;
  auto explanation = ExplainForest(forest, config);
  ASSERT_NE(explanation, nullptr);

  // Fig 10's reading: education_num correlates positively with salary.
  int edu = data.FeatureIndex("education_num");
  ASSERT_GE(edu, 0);
  auto it = std::find(explanation->selected_features.begin(),
                      explanation->selected_features.end(), edu);
  if (it != explanation->selected_features.end()) {
    size_t idx = it - explanation->selected_features.begin();
    int term = explanation->univariate_term_index[idx];
    std::vector<double> x(data.num_features(), 0.0);
    x[edu] = 5.0;
    double low = explanation->surrogate->TermContribution(term, x);
    x[edu] = 14.0;
    double high = explanation->surrogate->TermContribution(term, x);
    EXPECT_GT(high, low);
  }

  // Local explanation of a sensitive instance runs end to end.
  LocalExplanation local =
      ExplainInstance(*explanation, forest, data.GetRow(0));
  EXPECT_FALSE(local.terms.empty());
  EXPECT_GE(local.gam_prediction, 0.0);
  EXPECT_LE(local.gam_prediction, 1.0);
}

TEST(IntegrationTest, BivariateTermImprovesFidelityOnInteractingForest) {
  // Table 2's D'' story: with injected interactions, adding the right
  // tensor terms improves surrogate fidelity over a pure-additive GAM.
  Rng rng(907);
  std::vector<std::pair<int, int>> pairs = {{0, 1}, {0, 4}, {1, 4}};
  Dataset data = MakeGDoublePrimeDataset(4000, pairs, &rng);
  GbdtConfig fc;
  fc.num_trees = 120;
  fc.num_leaves = 16;
  fc.learning_rate = 0.15;
  Forest forest = TrainGbdt(data, nullptr, fc).forest;

  GefConfig additive;
  additive.num_univariate = 5;
  additive.num_bivariate = 0;
  additive.num_samples = 5000;
  additive.k = 32;
  GefConfig bivariate = additive;
  bivariate.num_bivariate = 3;

  auto plain = ExplainForest(forest, additive);
  auto tensor = ExplainForest(forest, bivariate);
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(tensor, nullptr);
  EXPECT_LT(tensor->fidelity_rmse_test, plain->fidelity_rmse_test);
}

}  // namespace
}  // namespace gef
