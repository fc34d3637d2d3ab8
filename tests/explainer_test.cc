// Tests for the end-to-end GEF pipeline and local explanations.

#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "forest/gbdt_trainer.h"
#include "gef/explainer.h"
#include "gef/local_explanation.h"
#include "stats/descriptive.h"
#include "stats/metrics.h"

namespace gef {
namespace {

Forest TrainGPrimeForest(uint64_t seed = 801, size_t rows = 3000) {
  Rng rng(seed);
  Dataset data = MakeGPrimeDataset(rows, &rng);
  GbdtConfig config;
  config.num_trees = 100;
  config.num_leaves = 16;
  config.learning_rate = 0.15;
  config.min_samples_leaf = 10;
  return TrainGbdt(data, nullptr, config).forest;
}

GefConfig FastConfig() {
  GefConfig config;
  config.num_univariate = 5;
  config.num_samples = 4000;
  config.k = 32;
  config.spline_basis = 12;
  return config;
}

TEST(ExplainerTest, ProducesHighFidelitySurrogate) {
  Forest forest = TrainGPrimeForest();
  auto explanation = ExplainForest(forest, FastConfig());
  ASSERT_NE(explanation, nullptr);
  EXPECT_EQ(explanation->selected_features.size(), 5u);
  // g' is additive, so a univariate GAM should track the forest closely;
  // the forest's own output range is ~[1, 5].
  EXPECT_LT(explanation->fidelity_rmse_test, 0.25);
  EXPECT_LT(explanation->fidelity_rmse_train,
            explanation->fidelity_rmse_test * 1.5 + 0.05);
}

TEST(ExplainerTest, SelectedFeaturesOrderedByImportance) {
  Forest forest = TrainGPrimeForest();
  auto explanation = ExplainForest(forest, FastConfig());
  ASSERT_NE(explanation, nullptr);
  auto gains = forest.GainImportance();
  const auto& selected = explanation->selected_features;
  for (size_t i = 1; i < selected.size(); ++i) {
    EXPECT_GE(gains[selected[i - 1]], gains[selected[i]]);
  }
}

TEST(ExplainerTest, RespectsRequestedComponentCounts) {
  Forest forest = TrainGPrimeForest();
  GefConfig config = FastConfig();
  config.num_univariate = 3;
  config.num_bivariate = 2;
  auto explanation = ExplainForest(forest, config);
  ASSERT_NE(explanation, nullptr);
  EXPECT_EQ(explanation->selected_features.size(), 3u);
  EXPECT_EQ(explanation->selected_pairs.size(), 2u);
  EXPECT_EQ(explanation->univariate_term_index.size(), 3u);
  EXPECT_EQ(explanation->bivariate_term_index.size(), 2u);
  // Heredity: pair members come from F'.
  for (const auto& [a, b] : explanation->selected_pairs) {
    EXPECT_NE(std::find(explanation->selected_features.begin(),
                        explanation->selected_features.end(), a),
              explanation->selected_features.end());
    EXPECT_NE(std::find(explanation->selected_features.begin(),
                        explanation->selected_features.end(), b),
              explanation->selected_features.end());
  }
  // GAM has intercept + 3 + 2 terms.
  EXPECT_EQ(explanation->surrogate->num_terms(), 6u);
}

TEST(ExplainerTest, ReconstructsGeneratorComponents) {
  // The Fig 4 claim: GEF splines match the generator functions of g'.
  Forest forest = TrainGPrimeForest(802, 5000);
  GefConfig config = FastConfig();
  config.sampling = SamplingStrategy::kEquiSize;
  config.k = 64;
  config.num_samples = 8000;
  auto explanation = ExplainForest(forest, config);
  ASSERT_NE(explanation, nullptr);
  for (size_t i = 0; i < explanation->selected_features.size(); ++i) {
    int feature = explanation->selected_features[i];
    int term = explanation->univariate_term_index[i];
    std::vector<double> fitted, truth;
    std::vector<double> x(5, 0.5);
    for (double v = 0.05; v <= 0.95; v += 0.05) {
      x[feature] = v;
      fitted.push_back(explanation->surrogate->TermContribution(term, x));
      truth.push_back(SyntheticComponent(feature, v));
    }
    EXPECT_GT(PearsonCorrelation(fitted, truth), 0.9)
        << "component for x" << feature + 1;
  }
}

TEST(ExplainerTest, ClassificationForestGetsLogitGam) {
  Rng rng(803);
  Dataset data(std::vector<std::string>{"x1", "x2"});
  for (int i = 0; i < 2500; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    double p = 1.0 / (1.0 + std::exp(-10.0 * (a + b - 1.0)));
    data.AppendRow({a, b}, rng.Uniform() < p ? 1.0 : 0.0);
  }
  GbdtConfig fc;
  fc.objective = Objective::kBinaryClassification;
  fc.num_trees = 60;
  fc.num_leaves = 8;
  Forest forest = TrainGbdt(data, nullptr, fc).forest;

  GefConfig config = FastConfig();
  config.num_univariate = 2;
  auto explanation = ExplainForest(forest, config);
  ASSERT_NE(explanation, nullptr);
  // GAM predictions are probabilities tracking the forest.
  std::vector<double> gam_p, forest_p;
  for (int i = 0; i < 50; ++i) {
    std::vector<double> x = {rng.Uniform(), rng.Uniform()};
    gam_p.push_back(explanation->surrogate->Predict(x));
    forest_p.push_back(forest.Predict(x));
    EXPECT_GE(gam_p.back(), 0.0);
    EXPECT_LE(gam_p.back(), 1.0);
  }
  EXPECT_GT(PearsonCorrelation(gam_p, forest_p), 0.9);
}

TEST(ExplainerTest, CategoricalHeuristicUsesFactorTerm) {
  // A feature with 3 distinct values gets < L = 10 thresholds -> factor.
  Rng rng(804);
  Dataset data(std::vector<std::string>{"cat", "cont"});
  for (int i = 0; i < 2000; ++i) {
    double c = static_cast<double>(rng.UniformInt(3));
    double x = rng.Uniform();
    data.AppendRow({c, x}, 2.0 * c + std::sin(6.0 * x));
  }
  GbdtConfig fc;
  fc.num_trees = 40;
  fc.num_leaves = 8;
  Forest forest = TrainGbdt(data, nullptr, fc).forest;
  GefConfig config = FastConfig();
  config.num_univariate = 2;
  auto explanation = ExplainForest(forest, config);
  ASSERT_NE(explanation, nullptr);
  for (size_t i = 0; i < explanation->selected_features.size(); ++i) {
    int feature = explanation->selected_features[i];
    int term = explanation->univariate_term_index[i];
    if (feature == 0) {
      EXPECT_TRUE(explanation->is_categorical[i]);
      EXPECT_TRUE(explanation->surrogate->TermIsFactor(term));
    } else {
      // A univariate spline_gam term is either a factor or a spline.
      EXPECT_FALSE(explanation->surrogate->TermIsFactor(term));
    }
  }
}

TEST(ExplainerTest, DeterministicGivenSeed) {
  Forest forest = TrainGPrimeForest();
  GefConfig config = FastConfig();
  auto a = ExplainForest(forest, config);
  auto b = ExplainForest(forest, config);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->selected_features, b->selected_features);
  EXPECT_DOUBLE_EQ(a->fidelity_rmse_test, b->fidelity_rmse_test);
}

TEST(ExplainerTest, GeneralizesOffTheSamplingLattice) {
  // Regression test for the uniform-knot failure mode: a small forest's
  // Equi-Size domains left knot intervals without D* support and the
  // spline oscillated between lattice points (off-lattice R² was
  // negative). Quantile-placed knots must keep the surrogate faithful on
  // continuous probe points it never trained on.
  Rng rng(806);
  Dataset data = MakeGPrimeDataset(2000, &rng);
  GbdtConfig fc;
  fc.num_trees = 80;
  fc.num_leaves = 8;
  fc.min_samples_leaf = 20;  // few, clustered thresholds
  Forest forest = TrainGbdt(data, nullptr, fc).forest;

  GefConfig config;  // library defaults, as the CLI uses them
  auto explanation = ExplainForest(forest, config);
  ASSERT_NE(explanation, nullptr);

  std::vector<double> gam_out, forest_out;
  for (int i = 0; i < 500; ++i) {
    std::vector<double> x(5);
    for (double& v : x) v = rng.Uniform();
    gam_out.push_back(explanation->surrogate->Predict(x));
    forest_out.push_back(forest.PredictRaw(x));
  }
  EXPECT_GT(RSquared(gam_out, forest_out), 0.9);
  EXPECT_LT(Rmse(gam_out, forest_out),
            3.0 * explanation->fidelity_rmse_test + 0.05);
}

TEST(ExplainerTest, TwoStageApiMatchesOneShot) {
  Forest forest = TrainGPrimeForest();
  GefConfig config = FastConfig();
  auto one_shot = ExplainForest(forest, config);
  GefSamplingArtifacts artifacts = BuildSamplingArtifacts(forest, config);
  auto two_stage = FitExplanation(forest, artifacts, config);
  ASSERT_NE(one_shot, nullptr);
  ASSERT_NE(two_stage, nullptr);
  EXPECT_EQ(one_shot->selected_features, two_stage->selected_features);
  EXPECT_DOUBLE_EQ(one_shot->fidelity_rmse_test,
                   two_stage->fidelity_rmse_test);
  std::vector<double> x = {0.3, 0.6, 0.52, 0.1, 0.8};
  EXPECT_DOUBLE_EQ(one_shot->surrogate->PredictRaw(x),
                   two_stage->surrogate->PredictRaw(x));
}

TEST(ExplainerTest, ArtifactsReusableAcrossComponentCounts) {
  // The Fig 7 sweep pattern: one D*, many GAM configurations.
  Forest forest = TrainGPrimeForest();
  GefConfig config = FastConfig();
  GefSamplingArtifacts artifacts = BuildSamplingArtifacts(forest, config);
  double previous_rmse = 1e9;
  for (int u : {1, 3, 5}) {
    GefConfig variant = config;
    variant.num_univariate = u;
    auto explanation = FitExplanation(forest, artifacts, variant);
    ASSERT_NE(explanation, nullptr);
    EXPECT_EQ(explanation->selected_features.size(),
              static_cast<size_t>(u));
    // More components never hurt much on the additive g'.
    EXPECT_LT(explanation->fidelity_rmse_test, previous_rmse + 0.05);
    previous_rmse = explanation->fidelity_rmse_test;
  }
}

TEST(ExplainerTest, ArtifactShapesAreConsistent) {
  Forest forest = TrainGPrimeForest();
  GefConfig config = FastConfig();
  GefSamplingArtifacts artifacts = BuildSamplingArtifacts(forest, config);
  EXPECT_EQ(artifacts.domains.size(), forest.num_features());
  EXPECT_EQ(artifacts.dstar.num_rows(), config.num_samples);
  EXPECT_EQ(artifacts.dstar.num_features(), forest.num_features());
  EXPECT_TRUE(artifacts.dstar.has_targets());
}

TEST(ExplainerTest, ValidateGefConfigNamesTheBadField) {
  EXPECT_TRUE(ValidateGefConfig(FastConfig()).ok());
  EXPECT_TRUE(ValidateGefConfig(GefConfig()).ok());
  struct Case {
    const char* field;
    void (*mutate)(GefConfig*);
  };
  const Case kCases[] = {
      {"num_univariate", [](GefConfig* c) { c->num_univariate = 0; }},
      {"num_bivariate", [](GefConfig* c) { c->num_bivariate = -1; }},
      {"k", [](GefConfig* c) { c->k = 0; }},
      {"num_samples", [](GefConfig* c) { c->num_samples = 10; }},
      {"test_fraction", [](GefConfig* c) { c->test_fraction = 1.0; }},
      {"hstat_sample_rows",
       [](GefConfig* c) {
         c->interaction = InteractionStrategy::kHStat;
         c->hstat_sample_rows = 1;
       }},
      {"spline_basis", [](GefConfig* c) { c->spline_basis = 4; }},
      {"tensor_basis", [](GefConfig* c) { c->tensor_basis = 3; }},
      {"lambda_grid", [](GefConfig* c) { c->lambda_grid.clear(); }},
      {"lambda_grid", [](GefConfig* c) { c->lambda_grid = {1.0, 0.0}; }},
      {"lambda_grid", [](GefConfig* c) { c->lambda_grid = {std::nan("")}; }},
      {"spline_gam", [](GefConfig* c) { c->surrogate_backend = "rules"; }},
      {"fanova_rounds", [](GefConfig* c) { c->fanova_rounds = 0; }},
      {"fanova_shrinkage", [](GefConfig* c) { c->fanova_shrinkage = 1.5; }},
      {"fanova_leaves", [](GefConfig* c) { c->fanova_leaves = 1; }},
      {"fanova_max_bins", [](GefConfig* c) { c->fanova_max_bins = 1; }},
      // Up to 1 + 5 * 32 coefficients (a factor per k = 32 domain
      // points) against 80 training rows.
      {"training rows", [](GefConfig* c) { c->num_samples = 100; }},
  };
  for (const Case& test_case : kCases) {
    GefConfig config = FastConfig();
    test_case.mutate(&config);
    Status status = ValidateGefConfig(config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << test_case.field;
    EXPECT_NE(status.message().find(test_case.field), std::string::npos)
        << status.message();
  }

  // Only the rules a setting actually reaches apply.
  GefConfig all_thresholds = FastConfig();
  all_thresholds.sampling = SamplingStrategy::kAllThresholds;
  all_thresholds.k = 0;  // ignored by All-Thresholds
  EXPECT_TRUE(ValidateGefConfig(all_thresholds).ok());
  GefConfig fanova = FastConfig();
  fanova.surrogate_backend = "boosted_fanova";
  fanova.num_samples = 100;  // no spline design to fill
  EXPECT_TRUE(ValidateGefConfig(fanova).ok());
}

TEST(ExplainerDeathTest, InvalidConfigsAbort) {
  Forest forest = TrainGPrimeForest();
  {
    GefConfig config = FastConfig();
    config.num_univariate = 0;
    EXPECT_DEATH(ExplainForest(forest, config), "");
  }
  {
    GefConfig config = FastConfig();
    config.test_fraction = 1.5;
    EXPECT_DEATH(ExplainForest(forest, config), "");
  }
  {
    GefConfig config = FastConfig();
    config.num_samples = 5;
    EXPECT_DEATH(ExplainForest(forest, config), "");
  }
  {
    GefConfig config = FastConfig();
    config.spline_basis = 2;
    EXPECT_DEATH(ExplainForest(forest, config), "");
  }
}

TEST(ExplainerDeathTest, SplitlessForestAborts) {
  std::vector<Tree> trees;
  trees.push_back(Tree::Stump(1.0));
  Forest forest(std::move(trees), 0.0, Objective::kRegression,
                Aggregation::kSum, 2, {});
  GefConfig config = FastConfig();
  EXPECT_DEATH(ExplainForest(forest, config), "no splits");
}

TEST(LocalExplanationTest, ContributionsSumToPrediction) {
  Forest forest = TrainGPrimeForest();
  auto explanation = ExplainForest(forest, FastConfig());
  ASSERT_NE(explanation, nullptr);
  std::vector<double> x = {0.3, 0.6, 0.52, 0.1, 0.8};
  LocalExplanation local = ExplainInstance(*explanation, forest, x);
  double total = local.intercept;
  for (const auto& term : local.terms) total += term.contribution;
  EXPECT_NEAR(total, local.gam_prediction, 1e-9);
  EXPECT_NEAR(local.gam_prediction, local.forest_prediction, 0.5);
}

TEST(LocalExplanationTest, TermsSortedByAbsoluteContribution) {
  Forest forest = TrainGPrimeForest();
  auto explanation = ExplainForest(forest, FastConfig());
  ASSERT_NE(explanation, nullptr);
  LocalExplanation local =
      ExplainInstance(*explanation, forest, {0.9, 0.1, 0.9, 0.9, 0.1});
  for (size_t i = 1; i < local.terms.size(); ++i) {
    EXPECT_GE(std::fabs(local.terms[i - 1].contribution),
              std::fabs(local.terms[i].contribution));
  }
}

TEST(LocalExplanationTest, WhatIfDeltaDetectsSharpJump) {
  // Near the sigmoid jump of x3 (index 2), a small +step flips the
  // contribution strongly upward — the paper's key local insight.
  Forest forest = TrainGPrimeForest(805, 5000);
  GefConfig config = FastConfig();
  config.num_samples = 8000;
  auto explanation = ExplainForest(forest, config);
  ASSERT_NE(explanation, nullptr);
  std::vector<double> x = {0.5, 0.5, 0.47, 0.5, 0.5};
  LocalExplanation local =
      ExplainInstance(*explanation, forest, x, /*step_fraction=*/0.1);
  const LocalTermContribution* sigmoid_term = nullptr;
  for (const auto& term : local.terms) {
    if (term.features == std::vector<int>{2}) sigmoid_term = &term;
  }
  ASSERT_NE(sigmoid_term, nullptr);
  EXPECT_GT(sigmoid_term->delta_plus, 0.3);
  EXPECT_GT(sigmoid_term->delta_plus,
            std::fabs(sigmoid_term->delta_minus));
}

TEST(LocalExplanationTest, IntervalsBracketContributions) {
  Forest forest = TrainGPrimeForest();
  auto explanation = ExplainForest(forest, FastConfig());
  ASSERT_NE(explanation, nullptr);
  LocalExplanation local =
      ExplainInstance(*explanation, forest, {0.2, 0.4, 0.6, 0.8, 0.5});
  for (const auto& term : local.terms) {
    EXPECT_LE(term.lower, term.contribution);
    EXPECT_GE(term.upper, term.contribution);
  }
}

TEST(LocalExplanationTest, FormatProducesReadableTable) {
  Forest forest = TrainGPrimeForest();
  auto explanation = ExplainForest(forest, FastConfig());
  ASSERT_NE(explanation, nullptr);
  LocalExplanation local =
      ExplainInstance(*explanation, forest, {0.5, 0.5, 0.5, 0.5, 0.5});
  std::string table = FormatLocalExplanation(local);
  EXPECT_NE(table.find("GAM prediction"), std::string::npos);
  EXPECT_NE(table.find("s(x"), std::string::npos);
  EXPECT_NE(table.find("95% CI"), std::string::npos);
}

}  // namespace
}  // namespace gef
