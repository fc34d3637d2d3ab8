#ifndef GEF_GEF_EXPLAINER_H_
#define GEF_GEF_EXPLAINER_H_

// The end-to-end GEF pipeline (paper Fig 1): feature selection → sampling
// domain construction → synthetic dataset D* → interaction selection →
// surrogate fit. The input is the forest alone; the original training
// data is never consulted. The surrogate family is pluggable
// (surrogate/registry.h): the paper's spline GAM is the default
// backend, selected by GefConfig::surrogate_backend.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "forest/forest.h"
#include "gef/interaction.h"
#include "gef/sampling.h"
#include "surrogate/surrogate.h"
#include "util/status.h"

namespace gef {

struct GefConfig {
  /// |F'|: number of univariate components the analyst requests.
  int num_univariate = 5;
  /// |F''|: number of bi-variate (tensor) components.
  int num_bivariate = 0;

  SamplingStrategy sampling = SamplingStrategy::kEquiSize;
  /// K: points per sampling domain (ignored by All-Thresholds).
  int k = 64;
  /// ε extension fraction beyond the threshold range (paper: 0.05).
  double epsilon_fraction = 0.05;
  /// N: number of synthetic instances in D*.
  size_t num_samples = 20000;
  /// Fraction of D* held out to measure surrogate fidelity.
  double test_fraction = 0.2;

  InteractionStrategy interaction = InteractionStrategy::kGainPath;
  /// Rows of D* used to estimate H-statistics (kHStat only).
  size_t hstat_sample_rows = 150;

  /// L: a feature with fewer distinct thresholds than this is treated as
  /// categorical and modelled with a factor term (paper: L = 10).
  int categorical_threshold = 10;

  /// P-spline basis functions per univariate spline term.
  int spline_basis = 16;
  /// Marginal basis functions per side of a tensor term.
  int tensor_basis = 6;
  /// Smoothing-parameter grid searched by GCV (shared λ across terms).
  std::vector<double> lambda_grid = {1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2};
  /// Extension: refine a per-term λ after the shared search (the paper
  /// fixes λ_1 = … = λ_{p+q}; see GamConfig::per_term_lambda).
  bool per_term_lambda = false;

  /// Surrogate family fitted on D*, by registry name
  /// (surrogate/registry.h): "spline_gam" (the paper) or
  /// "boosted_fanova" (GA²M-style boosted trees).
  std::string surrogate_backend = "spline_gam";
  /// boosted_fanova only: boosting rounds per component cycle.
  int fanova_rounds = 200;
  /// boosted_fanova only: learning rate per tree.
  double fanova_shrinkage = 0.1;
  /// boosted_fanova only: leaves per component tree.
  int fanova_leaves = 8;
  /// boosted_fanova only: histogram bins per feature.
  int fanova_max_bins = 64;

  uint64_t seed = 7;
};

/// The fitted explanation: the surrogate Γ plus everything the pipeline
/// chose.
struct GefExplanation {
  /// The fitted surrogate backend. Always non-null for a fitted
  /// explanation; every consumer reaches Γ through this interface.
  std::unique_ptr<Surrogate> surrogate;
  std::vector<int> selected_features;              // F', importance order
  std::vector<std::pair<int, int>> selected_pairs; // F''
  std::vector<std::vector<double>> domains;        // per forest feature
  /// Index of the surrogate term modelling selected_features[i]
  /// (intercept is term 0, so univariate terms start at 1 — the
  /// convention every backend implements; see surrogate/surrogate.h).
  std::vector<int> univariate_term_index;
  /// Index of the surrogate term modelling selected_pairs[i].
  std::vector<int> bivariate_term_index;
  /// Which selected features were deemed categorical (|V_i| < L).
  std::vector<bool> is_categorical;

  bool fitted() const {
    return surrogate != nullptr && surrogate->fitted();
  }

  /// Fidelity of Γ to the forest on the held-out D* split (RMSE between
  /// Γ and forest outputs — the paper's main tuning metric).
  double fidelity_rmse_test = 0.0;
  double fidelity_rmse_train = 0.0;
  /// D* held-out split, kept for downstream evaluation (Table 2).
  Dataset dstar_test;
};

/// The one rule set for a GefConfig: Ok, or InvalidArgument naming the
/// first field whose value the pipeline would reject with a fatal check
/// (counts and basis sizes below their minimums, an empty or
/// non-positive λ grid, an unknown backend, a D* too small for the
/// spline design). Entry points that take a config from outside — the
/// serving layer's overrides, the CLIs' flags — call it and report the
/// error; the pipeline functions below keep a fatal check on it.
Status ValidateGefConfig(const GefConfig& config);

/// Runs the full pipeline on a forest. Fatal on invalid configs (see
/// ValidateGefConfig); returns nullptr only when the GAM fit is
/// irreparably singular for every λ.
std::unique_ptr<GefExplanation> ExplainForest(const Forest& forest,
                                              const GefConfig& config);

/// The sampling-stage output, reusable across GAM configurations. D*
/// generation is the part of the pipeline whose cost scales with the
/// forest size; sweeps over |F'| / |F''| / basis counts (like the
/// paper's Fig 7 grid) should build it once.
struct GefSamplingArtifacts {
  std::vector<std::vector<double>> domains;  // per forest feature
  Dataset dstar;
};

/// Stage 1: builds the sampling domains and D* per `config` (uses
/// sampling, k, epsilon_fraction, num_samples, seed).
GefSamplingArtifacts BuildSamplingArtifacts(const Forest& forest,
                                            const GefConfig& config);

/// Stage 2: component selection + GAM fit on previously built artifacts.
/// `config`'s sampling-related fields are ignored here.
std::unique_ptr<GefExplanation> FitExplanation(
    const Forest& forest, const GefSamplingArtifacts& artifacts,
    const GefConfig& config);

}  // namespace gef

#endif  // GEF_GEF_EXPLAINER_H_
