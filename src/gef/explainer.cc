#include "gef/explainer.h"

#include <algorithm>

#include "data/split.h"
#include "forest/threshold_index.h"
#include "gef/feature_selection.h"
#include "obs/obs.h"
#include "stats/metrics.h"
#include "surrogate/registry.h"
#include "util/check.h"

namespace gef {
namespace {

// RMSE between surrogate predictions and the D* labels (which are the
// forest's own outputs — so this is surrogate fidelity, not accuracy).
double FidelityRmse(const Surrogate& surrogate, const Dataset& dstar) {
  return Rmse(surrogate.PredictBatch(dstar), dstar.targets());
}

void ValidateConfig(const GefConfig& config) {
  GEF_CHECK_GT(config.num_univariate, 0);
  GEF_CHECK_GE(config.num_bivariate, 0);
  GEF_CHECK_GT(config.num_samples, 10u);
  GEF_CHECK(config.test_fraction > 0.0 && config.test_fraction < 1.0);
  GEF_CHECK_GE(config.spline_basis, 5);
  GEF_CHECK_GE(config.tensor_basis, 4);
  GEF_CHECK_MSG(SurrogateBackendExists(config.surrogate_backend),
                "unknown surrogate backend (see SurrogateBackendNames)");
  GEF_CHECK_GT(config.fanova_rounds, 0);
  GEF_CHECK(config.fanova_shrinkage > 0.0 &&
            config.fanova_shrinkage <= 1.0);
  GEF_CHECK_GE(config.fanova_leaves, 2);
  GEF_CHECK_GE(config.fanova_max_bins, 2);
}

// The backend-facing slice of GefConfig. Every field copied here must
// be covered by serve::GefConfigFingerprint (the cache-key audit test
// pins that).
SurrogateConfig MakeSurrogateConfig(const GefConfig& config) {
  SurrogateConfig out;
  out.spline_basis = config.spline_basis;
  out.tensor_basis = config.tensor_basis;
  out.lambda_grid = config.lambda_grid;
  out.per_term_lambda = config.per_term_lambda;
  out.fanova_rounds = config.fanova_rounds;
  out.fanova_shrinkage = config.fanova_shrinkage;
  out.fanova_leaves = config.fanova_leaves;
  out.fanova_max_bins = config.fanova_max_bins;
  out.seed = config.seed;
  return out;
}

}  // namespace

GefSamplingArtifacts BuildSamplingArtifacts(const Forest& forest,
                                            const GefConfig& config) {
  ValidateConfig(config);
  Rng rng(config.seed);
  ThresholdIndex index(forest);
  GefSamplingArtifacts artifacts;
  artifacts.domains =
      BuildAllDomains(forest, index, config.sampling, config.k,
                      config.epsilon_fraction, &rng);
  artifacts.dstar = GenerateSyntheticDataset(forest, artifacts.domains,
                                             config.num_samples, &rng);
  return artifacts;
}

std::unique_ptr<GefExplanation> FitExplanation(
    const Forest& forest, const GefSamplingArtifacts& artifacts,
    const GefConfig& config) {
  ValidateConfig(config);
  GEF_CHECK_EQ(artifacts.domains.size(), forest.num_features());
  GEF_CHECK(artifacts.dstar.has_targets());
  // Offset keeps this stage's randomness independent of the sampling
  // stage while staying a pure function of the seed.
  Rng rng(config.seed ^ 0x5851f42d4c957f2dULL);
  ThresholdIndex index(forest);

  // --- Univariate component selection (F'). ---
  std::vector<int> selected;
  {
    GEF_OBS_SPAN("gef.feature_selection");
    selected = SelectTopFeatures(forest, config.num_univariate);
  }
  GEF_CHECK_MSG(!selected.empty(),
                "the forest has no splits — nothing to explain");

  // --- Bi-variate component selection (F''). ---
  std::vector<std::pair<int, int>> pairs;
  if (config.num_bivariate > 0 && selected.size() >= 2) {
    GEF_OBS_SPAN("gef.interaction_selection");
    const Dataset* hstat_sample_ptr = nullptr;
    Dataset hstat_sample;
    if (config.interaction == InteractionStrategy::kHStat) {
      size_t rows =
          std::min(config.hstat_sample_rows, artifacts.dstar.num_rows());
      std::vector<size_t> idx =
          rng.SampleWithoutReplacement(artifacts.dstar.num_rows(), rows);
      hstat_sample = artifacts.dstar.Subset(idx);
      hstat_sample_ptr = &hstat_sample;
    }
    pairs = SelectTopInteractions(forest, selected, config.interaction,
                                  config.num_bivariate, hstat_sample_ptr);
  }

  // --- Component metadata + surrogate fit. ---
  auto explanation = std::make_unique<GefExplanation>();
  explanation->selected_features = selected;
  explanation->selected_pairs = pairs;
  explanation->domains = artifacts.domains;

  // Term layout is fixed across backends (surrogate/surrogate.h): the
  // intercept is term 0, univariate components follow in selection
  // order, then the pairs.
  explanation->is_categorical.resize(selected.size(), false);
  for (size_t i = 0; i < selected.size(); ++i) {
    explanation->is_categorical[i] =
        static_cast<int>(index.NumDistinctThresholds(selected[i])) <
        config.categorical_threshold;
    explanation->univariate_term_index.push_back(
        static_cast<int>(1 + i));
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    explanation->bivariate_term_index.push_back(
        static_cast<int>(1 + selected.size() + i));
  }

  GEF_OBS_SPAN("gef.gam_stage");
  TrainTestSplit split =
      SplitTrainTest(artifacts.dstar, config.test_fraction, &rng);

  SurrogateSpec spec;
  spec.selected_features = selected;
  spec.selected_pairs = pairs;
  spec.is_categorical = explanation->is_categorical;
  spec.domains = &artifacts.domains;
  spec.link = forest.objective() == Objective::kBinaryClassification
                  ? LinkType::kLogit
                  : LinkType::kIdentity;

  std::unique_ptr<Surrogate> surrogate =
      CreateSurrogate(config.surrogate_backend);
  GEF_CHECK(surrogate != nullptr);  // ValidateConfig checked the name
  if (!surrogate->Fit(spec, MakeSurrogateConfig(config), split.train)) {
    return nullptr;
  }
  explanation->surrogate = std::move(surrogate);

  explanation->fidelity_rmse_train =
      FidelityRmse(*explanation->surrogate, split.train);
  explanation->fidelity_rmse_test =
      FidelityRmse(*explanation->surrogate, split.test);
  GEF_OBS_GAUGE_SET("gef.fidelity_rmse_train",
                    explanation->fidelity_rmse_train);
  GEF_OBS_GAUGE_SET("gef.fidelity_rmse_test",
                    explanation->fidelity_rmse_test);
  explanation->dstar_test = std::move(split.test);
  return explanation;
}

std::unique_ptr<GefExplanation> ExplainForest(const Forest& forest,
                                              const GefConfig& config) {
  GefSamplingArtifacts artifacts = BuildSamplingArtifacts(forest, config);
  return FitExplanation(forest, artifacts, config);
}

}  // namespace gef
