// Tests for Kernel SHAP: exactness on linear models, local accuracy,
// agreement with exact TreeSHAP on independent backgrounds, and the
// model-agnostic path (explaining the GEF GAM itself).

#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "explain/kernelshap.h"
#include "forest/gbdt_trainer.h"
#include "gef/explainer.h"

namespace gef {
namespace {

Dataset UniformBackground(size_t rows, size_t features, Rng* rng) {
  Dataset d(features);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<double> x(features);
    for (double& v : x) v = rng->Uniform();
    d.AppendRow(x);
  }
  return d;
}

TEST(KernelShapTest, ExactOnLinearModel) {
  // For f(x) = Σ a_f x_f with independent background, the Shapley value
  // of feature f is a_f (x_f − E[x_f]) exactly.
  Rng rng(201);
  Dataset background = UniformBackground(400, 3, &rng);
  std::vector<double> a = {2.0, -1.0, 0.5};
  auto model = [&a](const std::vector<double>& x) {
    return a[0] * x[0] + a[1] * x[1] + a[2] * x[2];
  };
  KernelShapConfig config;
  config.background_rows = 0;  // use all rows
  KernelShapExplainer explainer(model, background, config);
  std::vector<double> instance = {0.9, 0.2, 0.6};
  ShapExplanation e = explainer.Explain(instance);
  for (int f = 0; f < 3; ++f) {
    double mean_f = 0.0;
    for (double v : background.Column(f)) mean_f += v;
    mean_f /= background.num_rows();
    EXPECT_NEAR(e.values[f], a[f] * (instance[f] - mean_f), 1e-8);
  }
}

TEST(KernelShapTest, LocalAccuracyHoldsByConstruction) {
  Rng rng(202);
  Dataset data = MakeGPrimeDataset(1200, &rng);
  GbdtConfig fc;
  fc.num_trees = 30;
  fc.num_leaves = 8;
  Forest forest = TrainGbdt(data, nullptr, fc).forest;
  KernelShapConfig config;
  config.background_rows = 60;
  KernelShapExplainer explainer(forest, data, config);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> x(5);
    for (double& v : x) v = rng.Uniform();
    ShapExplanation e = explainer.Explain(x);
    double total = e.base_value;
    for (double phi : e.values) total += phi;
    EXPECT_NEAR(total, forest.PredictRaw(x), 1e-8);
  }
}

TEST(KernelShapTest, AgreesWithTreeShapOnIndependentBackground) {
  Rng rng(203);
  Dataset data = MakeGPrimeDataset(2000, &rng);
  GbdtConfig fc;
  fc.num_trees = 60;
  fc.num_leaves = 16;
  fc.learning_rate = 0.15;
  Forest forest = TrainGbdt(data, nullptr, fc).forest;

  KernelShapConfig config;
  config.background_rows = 150;
  KernelShapExplainer kernel(forest, data, config);
  TreeShapExplainer tree(forest);

  std::vector<double> x = {0.3, 0.7, 0.45, 0.2, 0.8};
  ShapExplanation ke = kernel.Explain(x);
  ShapExplanation te = tree.Explain(x);
  // g' is additive and features are independent: the two algorithms
  // estimate the same quantity up to background sampling noise.
  for (int f = 0; f < 5; ++f) {
    EXPECT_NEAR(ke.values[f], te.values[f], 0.12)
        << "feature " << f;
  }
}

TEST(KernelShapTest, SingleFeatureGetsAllCredit) {
  Rng rng(204);
  Dataset background = UniformBackground(100, 1, &rng);
  auto model = [](const std::vector<double>& x) { return 3.0 * x[0]; };
  KernelShapConfig config;
  KernelShapExplainer explainer(model, background, config);
  ShapExplanation e = explainer.Explain({0.8});
  EXPECT_NEAR(e.base_value + e.values[0], 2.4, 1e-9);
}

TEST(KernelShapTest, SampledModeStillLocallyAccurate) {
  // Force the sampling path by lowering the enumeration limit.
  Rng rng(205);
  Dataset data = MakeGPrimeDataset(800, &rng);
  GbdtConfig fc;
  fc.num_trees = 20;
  fc.num_leaves = 8;
  Forest forest = TrainGbdt(data, nullptr, fc).forest;
  KernelShapConfig config;
  config.exact_enumeration_limit = 2;  // forces sampling for 5 features
  config.num_coalitions = 500;
  config.background_rows = 50;
  KernelShapExplainer explainer(forest, data, config);
  std::vector<double> x = {0.5, 0.5, 0.5, 0.5, 0.5};
  ShapExplanation e = explainer.Explain(x);
  double total = e.base_value;
  for (double phi : e.values) total += phi;
  EXPECT_NEAR(total, forest.PredictRaw(x), 1e-8);
}

TEST(KernelShapTest, ExplainsTheGefSurrogateItself) {
  // Model-agnostic: audit Γ with SHAP, closing the loop — the GAM's own
  // SHAP values should match its additive term contributions.
  Rng rng(206);
  Dataset data = MakeGPrimeDataset(2000, &rng);
  GbdtConfig fc;
  fc.num_trees = 50;
  fc.num_leaves = 8;
  Forest forest = TrainGbdt(data, nullptr, fc).forest;
  GefConfig gef_config;
  gef_config.num_univariate = 5;
  gef_config.num_samples = 3000;
  gef_config.k = 24;
  auto explanation = ExplainForest(forest, gef_config);
  ASSERT_NE(explanation, nullptr);
  const Surrogate& surrogate = *explanation->surrogate;

  KernelShapConfig config;
  config.background_rows = 200;
  KernelShapExplainer explainer(
      [&surrogate](const std::vector<double>& row) {
        return surrogate.PredictRaw(row);
      },
      data, config);
  std::vector<double> x = {0.2, 0.8, 0.55, 0.4, 0.7};
  ShapExplanation e = explainer.Explain(x);
  // For an additive model with independent background, SHAP of feature
  // f equals s_f(x_f) − E[s_f] — correlate against the GAM terms.
  for (size_t i = 0; i < explanation->selected_features.size(); ++i) {
    int feature = explanation->selected_features[i];
    int term = explanation->univariate_term_index[i];
    double contribution = surrogate.TermContribution(term, x);
    // The term is mean-zero over D*, the background is the original
    // distribution — allow a loose tolerance for that mismatch.
    EXPECT_NEAR(e.values[feature], contribution, 0.25)
        << "feature " << feature;
  }
}

}  // namespace
}  // namespace gef
