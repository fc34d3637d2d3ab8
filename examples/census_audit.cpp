// Classification case study on the (simulated) Census dataset: the
// paper's "explain to justify" motivation. Audits a salary classifier by
// reading the GEF splines of sensitive and non-sensitive features and by
// explaining individual decisions.

#include <cstdio>

#include "data/census.h"
#include "data/split.h"
#include "forest/gbdt_trainer.h"
#include "gef/explainer.h"
#include "gef/local_explanation.h"
#include "stats/metrics.h"

int main() {
  gef::Rng rng(11);
  gef::Dataset data = gef::MakeCensusDatasetEncoded(8000, &rng);
  auto split = gef::SplitTrainTest(data, 0.2, &rng);

  gef::GbdtConfig forest_config;
  forest_config.objective = gef::Objective::kBinaryClassification;
  forest_config.num_trees = 100;
  forest_config.num_leaves = 16;
  forest_config.learning_rate = 0.1;
  gef::Forest forest =
      gef::TrainGbdt(split.train, nullptr, forest_config).forest;
  std::printf("Forest test accuracy: %.3f, log-loss: %.3f\n",
              gef::Accuracy(forest.PredictBatch(split.test),
                            split.test.targets()),
              gef::LogLoss(forest.PredictBatch(split.test),
                           split.test.targets()));

  // Paper's Census settings: 5 splines, 1 interaction, K-Quantile, K=800
  // (scaled down here).
  gef::GefConfig config;
  config.num_univariate = 5;
  config.num_bivariate = 1;
  config.sampling = gef::SamplingStrategy::kKQuantile;
  config.k = 48;
  config.num_samples = 8000;
  auto explanation = gef::ExplainForest(forest, config);
  if (explanation == nullptr) {
    std::printf("GAM fit failed\n");
    return 1;
  }
  std::printf("GEF fidelity RMSE on D* (probability scale): %.4f\n\n",
              explanation->fidelity_rmse_test);

  std::printf("Selected components:\n");
  for (size_t i = 0; i < explanation->selected_features.size(); ++i) {
    int f = explanation->selected_features[i];
    std::printf("  %s%s\n", forest.feature_names()[f].c_str(),
                explanation->is_categorical[i] ? "  [factor term]" : "");
  }
  for (const auto& [a, b] : explanation->selected_pairs) {
    std::printf("  interaction: %s x %s\n",
                forest.feature_names()[a].c_str(),
                forest.feature_names()[b].c_str());
  }

  // The audit: how does the education spline move the log-odds?
  int edu = data.FeatureIndex("education_num");
  auto it = std::find(explanation->selected_features.begin(),
                      explanation->selected_features.end(), edu);
  if (it != explanation->selected_features.end()) {
    size_t idx = it - explanation->selected_features.begin();
    int term = explanation->univariate_term_index[idx];
    std::printf("\nEducation effect on the log-odds (the Fig 10 read):\n");
    std::vector<double> x(data.num_features(), 0.0);
    for (double years = 4.0; years <= 16.0; years += 2.0) {
      x[edu] = years;
      gef::EffectInterval effect =
          explanation->surrogate->TermEffect(term, x);
      std::printf("  education_num = %4.1f -> %+6.3f  [%+.3f, %+.3f]\n",
                  years, effect.value, effect.lower, effect.upper);
    }
  }

  // Explain two individual decisions.
  std::printf("\nLocal explanation, test instance 0:\n%s",
              gef::FormatLocalExplanation(gef::ExplainInstance(
                                              *explanation, forest,
                                              split.test.GetRow(0)))
                  .c_str());
  return 0;
}
