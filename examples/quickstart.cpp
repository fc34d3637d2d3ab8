// Quickstart: train a forest on synthetic data, explain it with GEF, and
// inspect the resulting GAM — all in ~60 lines of library calls.
//
//   ./quickstart
//
// The flow mirrors the paper's Fig 1: forest -> (feature selection,
// sampling, interaction detection) -> synthetic dataset D* -> GAM.

#include <cstdio>

#include "data/synthetic.h"
#include "forest/gbdt_trainer.h"
#include "gef/explainer.h"
#include "gef/local_explanation.h"

int main() {
  // 1. Train the "black box": a GBDT on the paper's g'(x) target.
  gef::Rng rng(42);
  gef::Dataset train = gef::MakeGPrimeDataset(5000, &rng);
  gef::GbdtConfig forest_config;
  forest_config.num_trees = 150;
  forest_config.num_leaves = 16;
  forest_config.learning_rate = 0.1;
  gef::Forest forest =
      gef::TrainGbdt(train, nullptr, forest_config).forest;
  std::printf("Trained forest: %zu trees, %zu split nodes\n",
              forest.num_trees(), forest.num_internal_nodes());

  // 2. Explain it. GEF only looks at the forest — `train` is not passed.
  gef::GefConfig config;
  config.num_univariate = 5;                       // |F'|
  config.num_bivariate = 0;                        // |F''|
  config.sampling = gef::SamplingStrategy::kEquiSize;
  config.k = 64;                                   // points per domain
  config.num_samples = 10000;                      // |D*|
  auto explanation = gef::ExplainForest(forest, config);
  if (explanation == nullptr) {
    std::printf("GAM fit failed\n");
    return 1;
  }
  std::printf("Surrogate fidelity (RMSE vs forest on held-out D*): %.4f\n",
              explanation->fidelity_rmse_test);

  // 3. Global view: each spline is a 1-D function you can plot.
  std::printf("\nGlobal explanation — spline values s_j(x):\n  x     ");
  for (int f : explanation->selected_features) {
    std::printf("  s(%s)", forest.feature_names()[f].c_str());
  }
  std::printf("\n");
  std::vector<double> x(5, 0.5);
  for (double v = 0.1; v < 1.0; v += 0.2) {
    std::printf("  %.2f  ", v);
    for (size_t i = 0; i < explanation->selected_features.size(); ++i) {
      std::vector<double> probe = x;
      probe[explanation->selected_features[i]] = v;
      std::printf("%+7.3f", explanation->surrogate->TermContribution(
                                explanation->univariate_term_index[i],
                                probe));
    }
    std::printf("\n");
  }

  // 4. Local view: explain one instance, with what-if deltas.
  std::vector<double> instance = {0.3, 0.8, 0.48, 0.2, 0.6};
  gef::LocalExplanation local =
      gef::ExplainInstance(*explanation, forest, instance);
  std::printf("\nLocal explanation of one instance:\n%s",
              gef::FormatLocalExplanation(local).c_str());
  return 0;
}
