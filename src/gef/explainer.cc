#include "gef/explainer.h"

#include <algorithm>
#include <cmath>

#include "data/split.h"
#include "forest/threshold_index.h"
#include "gef/feature_selection.h"
#include "obs/obs.h"
#include "stats/metrics.h"
#include "surrogate/registry.h"
#include "util/check.h"
#include "util/string_util.h"

namespace gef {
namespace {

// RMSE between surrogate predictions and the D* labels (which are the
// forest's own outputs — so this is surrogate fidelity, not accuracy).
double FidelityRmse(const Surrogate& surrogate, const Dataset& dstar) {
  return Rmse(surrogate.PredictBatch(dstar), dstar.targets());
}

// The fatal form of ValidateGefConfig, for library callers.
void CheckConfig(const GefConfig& config) {
  const Status status = ValidateGefConfig(config);
  GEF_CHECK_MSG(status.ok(), "invalid GefConfig: " << status.message());
}

// An upper bound on the spline GAM's coefficient count
// (surrogate/spline_gam.cc builds the terms). A univariate term is a
// spline of at most spline_basis functions or a factor with one level
// per domain point: at most k points under a K-based strategy, at most
// categorical_threshold for a categorical feature, at most
// spline_basis / 2 otherwise. A tensor term has at most tensor_basis²
// coefficients. Doubles, so no product overflows.
double MaxSplineCoefficients(const GefConfig& config) {
  double per_univariate =
      std::max(config.spline_basis, config.categorical_threshold);
  if (config.sampling != SamplingStrategy::kAllThresholds) {
    per_univariate = std::max(per_univariate, static_cast<double>(config.k));
  }
  const double tensor = static_cast<double>(config.tensor_basis) *
                        static_cast<double>(config.tensor_basis);
  return 1.0 + config.num_univariate * per_univariate +
         config.num_bivariate * tensor;
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

Status ValidateGefConfig(const GefConfig& config) {
  const auto below = [](const char* field, long long value,
                        long long minimum) {
    return Status::InvalidArgument(
        std::string(field) + " must be >= " + std::to_string(minimum) +
        " (got " + std::to_string(value) + ")");
  };
  if (config.num_univariate < 1) {
    return below("num_univariate", config.num_univariate, 1);
  }
  if (config.num_bivariate < 0) {
    return below("num_bivariate", config.num_bivariate, 0);
  }
  if (config.sampling != SamplingStrategy::kAllThresholds && config.k < 1) {
    return below("k", config.k, 1);
  }
  if (config.num_samples < 11) {
    return below("num_samples", static_cast<long long>(config.num_samples),
                 11);
  }
  if (!(config.test_fraction > 0.0 && config.test_fraction < 1.0)) {
    return Status::InvalidArgument("test_fraction must be in (0, 1)");
  }
  if (config.interaction == InteractionStrategy::kHStat &&
      config.hstat_sample_rows < 2) {
    return below("hstat_sample_rows",
                 static_cast<long long>(config.hstat_sample_rows), 2);
  }
  if (config.spline_basis < 5) {
    return below("spline_basis", config.spline_basis, 5);
  }
  if (config.tensor_basis < 4) {
    return below("tensor_basis", config.tensor_basis, 4);
  }
  if (config.lambda_grid.empty()) {
    return Status::InvalidArgument("lambda_grid must not be empty");
  }
  for (double lambda : config.lambda_grid) {
    if (!(lambda > 0.0) || !std::isfinite(lambda)) {
      return Status::InvalidArgument(
          "lambda_grid values must be finite and > 0");
    }
  }
  if (!SurrogateBackendExists(config.surrogate_backend)) {
    return Status::InvalidArgument(
        "unknown surrogate backend \"" + config.surrogate_backend +
        "\" (known: " + Join(SurrogateBackendNames(), ", ") + ")");
  }
  if (config.fanova_rounds < 1) {
    return below("fanova_rounds", config.fanova_rounds, 1);
  }
  if (!(config.fanova_shrinkage > 0.0 && config.fanova_shrinkage <= 1.0)) {
    return Status::InvalidArgument("fanova_shrinkage must be in (0, 1]");
  }
  if (config.fanova_leaves < 2) {
    return below("fanova_leaves", config.fanova_leaves, 2);
  }
  if (config.fanova_max_bins < 2) {
    return below("fanova_max_bins", config.fanova_max_bins, 2);
  }
  if (config.surrogate_backend == "spline_gam") {
    // Gam::Fit needs a training row per coefficient. The split keeps
    // all but floor(n * test_fraction) rows, and at least one row on
    // each side (data/split.cc).
    const size_t n = config.num_samples;
    const size_t test = std::max<size_t>(
        1, std::min(static_cast<size_t>(static_cast<double>(n) *
                                        config.test_fraction),
                    n - 1));
    const double coefficients = MaxSplineCoefficients(config);
    if (static_cast<double>(n - test) < coefficients) {
      return Status::InvalidArgument(
          "num_samples " + std::to_string(n) + " leaves " +
          std::to_string(n - test) +
          " training rows, fewer than the up to " +
          FormatDouble(coefficients, 15) +
          " spline coefficients this config can fit");
    }
  }
  return Status::Ok();
}

GefSamplingArtifacts BuildSamplingArtifacts(const Forest& forest,
                                            const GefConfig& config) {
  CheckConfig(config);
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
  CheckConfig(config);
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
  GEF_CHECK(surrogate != nullptr);  // CheckConfig checked the name
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
