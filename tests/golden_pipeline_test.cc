// Golden end-to-end regression test: a fixed-seed GEF pipeline run whose
// discrete outputs (selected features, selected interaction pairs,
// categorical flags, domain sizes) are checked against values captured
// at PR 3 time, plus a fidelity floor. Any change to forest training,
// sampling, selection, or GAM fitting that shifts these is surfaced
// here as an explicit diff to re-bless rather than silent drift. The
// surrogate's content hash is pinned the same way.
//
// BenchWorkloadFidelityHoldsBaseline is the fidelity drift gate: both
// surrogate backends on two full-size workloads must keep their held-out
// R² and RMSE within kFidelityDriftTol of the recorded values.
//
// The golden values are exact (EXPECT_EQ on integers): every stochastic
// component draws from gef::Rng with fixed seeds and the parallel chunk
// grid is thread-count independent, so the pipeline is bit-reproducible
// across runs and thread counts. Fidelity is checked as a floor, not an
// exact value, to stay robust to benign floating-point reassociation.

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/census.h"
#include "data/synthetic.h"
#include "forest/gbdt_trainer.h"
#include "gef/evaluation.h"
#include "gef/explainer.h"
#include "gef/explanation_io.h"
#include "stats/rng.h"
#include "util/parallel.h"

namespace gef {
namespace {

GbdtConfig GoldenForestConfig() {
  GbdtConfig config;
  config.num_trees = 60;
  config.num_leaves = 16;
  config.learning_rate = 0.1;
  return config;
}

GefConfig GoldenGefConfig() {
  GefConfig config;
  config.num_univariate = 5;
  config.num_bivariate = 2;
  config.num_samples = 8000;
  config.k = 64;
  config.seed = 4242;
  return config;
}

Forest TrainGoldenForest() {
  Rng rng(4242);
  Dataset data = MakeGDoublePrimeDataset(1500, {{0, 1}, {2, 3}}, &rng);
  return TrainGbdt(data, nullptr, GoldenForestConfig()).forest;
}

TEST(GoldenPipelineTest, SelectionsMatchBlessedValues) {
  Forest forest = TrainGoldenForest();
  auto explanation = ExplainForest(forest, GoldenGefConfig());
  ASSERT_NE(explanation, nullptr);

  // ---- Golden values captured at PR 3 (seed 4242). If a deliberate
  // algorithm change moves them, re-bless by updating the literals and
  // explaining the shift in the PR description.
  const std::vector<int> kGoldenFeatures = {1, 2, 3, 0, 4};
  const std::vector<std::pair<int, int>> kGoldenPairs = {{1, 2},
                                                         {1, 3}};

  EXPECT_EQ(explanation->selected_features, kGoldenFeatures);
  EXPECT_EQ(explanation->selected_pairs, kGoldenPairs);

  // g'' uses 5 continuous features: none should look categorical.
  ASSERT_EQ(explanation->is_categorical.size(), 5u);
  for (size_t i = 0; i < explanation->is_categorical.size(); ++i) {
    EXPECT_FALSE(explanation->is_categorical[i]) << "feature slot " << i;
  }

  // ---- Fidelity floor: blessed values minus a safety margin (exact
  // floats are not golden — benign reassociation may move them slightly).
  ASSERT_EQ(explanation->dstar_test.num_rows(),
            static_cast<size_t>(8000 * 0.2));
  FidelityReport fidelity =
      EvaluateFidelity(*explanation, forest, explanation->dstar_test);
  // Blessed run: r2 = 0.9566, test rmse = 0.1603.
  EXPECT_GE(fidelity.r2, 0.94);
  EXPECT_LE(explanation->fidelity_rmse_test, 0.19);

  // ---- Identity-link surrogate bits. The golden forest is a regression
  // forest, so this pins every fitted double of the identity-link GAM
  // (β, covariance, λ, importances) through its canonical text.
  EXPECT_EQ(explanation->surrogate->ContentHash(), 0x42242d4846c416f2u);
}

/// Maximum |Δ| either fidelity statistic (R², RMSE) may move from its
/// recorded value. Wide enough to absorb libm and summation-order
/// differences across machines, far too tight for a real modelling
/// regression to hide in: a larger move means the fitted models changed,
/// which a performance change must not do.
constexpr double kFidelityDriftTol = 0.02;

/// Held-out fidelity of one backend on one workload: the values every
/// single-run perf report of these workloads recorded before the reports
/// were retired (git history keeps them).
struct BenchFidelity {
  const char* workload;
  const char* backend;
  double r2;
  double rmse;
};

constexpr BenchFidelity kBenchFidelity[] = {
    {"synthetic", "spline_gam", 0.977327, 0.139926},
    {"synthetic", "boosted_fanova", 0.987506, 0.103871},
    {"census", "spline_gam", 0.762428, 0.11919},
    {"census", "boosted_fanova", 0.70414, 0.133011},
};

GefConfig BenchGefConfig(int num_bivariate) {
  GefConfig config;
  config.num_univariate = 5;
  config.num_bivariate = num_bivariate;
  config.num_samples = 20000;
  config.k = 64;
  config.spline_basis = 16;
  return config;
}

// Fits every backend kBenchFidelity lists for `workload` on one set of
// sampling artifacts, so the rows compare surrogate families rather than
// D* draws, and checks each fit on its own held-out D*. Returns the fits
// by backend name.
std::map<std::string, std::unique_ptr<GefExplanation>> CheckBenchFidelity(
    const std::string& workload, const Forest& forest,
    const GefConfig& config) {
  const GefSamplingArtifacts artifacts =
      BuildSamplingArtifacts(forest, config);
  std::map<std::string, std::unique_ptr<GefExplanation>> fits;
  for (const BenchFidelity& expected : kBenchFidelity) {
    if (workload != expected.workload) continue;
    GefConfig backend_config = config;
    backend_config.surrogate_backend = expected.backend;
    auto fit = FitExplanation(forest, artifacts, backend_config);
    if (fit == nullptr) {
      ADD_FAILURE() << workload << " " << expected.backend << ": no fit";
      continue;
    }
    FidelityReport fidelity = EvaluateFidelity(*fit, forest, fit->dstar_test);
    EXPECT_NEAR(fidelity.r2, expected.r2, kFidelityDriftTol)
        << workload << " " << expected.backend << " R2";
    EXPECT_NEAR(fidelity.rmse, expected.rmse, kFidelityDriftTol)
        << workload << " " << expected.backend << " RMSE";
    fits[expected.backend] = std::move(fit);
  }
  return fits;
}

TEST(GoldenPipelineTest, BenchWorkloadFidelityHoldsBaseline) {
  {
    // g'' with two generating pairs, regression forest.
    Rng rng(42);
    Dataset train = MakeGDoublePrimeDataset(3000, {{0, 1}, {2, 3}}, &rng);
    GbdtConfig forest_config;
    forest_config.num_trees = 120;
    forest_config.num_leaves = 16;
    forest_config.learning_rate = 0.1;
    forest_config.min_samples_leaf = 10;
    Forest forest = TrainGbdt(train, nullptr, forest_config).forest;
    CheckBenchFidelity("synthetic", forest, BenchGefConfig(2));
  }
  {
    // Simulated Census, binary forest: the logit link.
    Rng rng(43);
    Dataset train = MakeCensusDatasetEncoded(4000, &rng);
    GbdtConfig forest_config;
    forest_config.objective = Objective::kBinaryClassification;
    forest_config.num_trees = 100;
    forest_config.num_leaves = 32;
    forest_config.learning_rate = 0.1;
    forest_config.min_samples_leaf = 20;
    Forest forest = TrainGbdt(train, nullptr, forest_config).forest;
    auto fits = CheckBenchFidelity("census", forest, BenchGefConfig(1));

    // ---- Logit-link surrogate bits. This pins every fitted double of
    // the PIRLS-fitted spline GAM (β, covariance, λ, importances)
    // through its canonical text. Removing the Cholesky jitter from the
    // fit path is expected to move it; re-pin it then.
    ASSERT_EQ(fits.count("spline_gam"), 1u);
    EXPECT_EQ(fits.at("spline_gam")->surrogate->ContentHash(),
              0x2288956638d694fau);

    // ---- Boosted fANOVA bits. Its step functions are grown by the same
    // TreeGrower as the forest, on 1- and 2-feature views of D*, so this
    // pins the grower's exactness through the second backend too.
    ASSERT_EQ(fits.count("boosted_fanova"), 1u);
    EXPECT_EQ(fits.at("boosted_fanova")->surrogate->ContentHash(),
              0x53f10e8328a203c1u);
  }
}

TEST(GoldenPipelineTest, ReRunIsByteIdentical) {
  // Two full runs from the same seeds must agree exactly — including
  // every GAM coefficient — which the text serialization captures
  // byte-for-byte.
  Forest forest_a = TrainGoldenForest();
  Forest forest_b = TrainGoldenForest();
  auto explanation_a = ExplainForest(forest_a, GoldenGefConfig());
  auto explanation_b = ExplainForest(forest_b, GoldenGefConfig());
  ASSERT_NE(explanation_a, nullptr);
  ASSERT_NE(explanation_b, nullptr);
  EXPECT_EQ(ExplanationToString(*explanation_a),
            ExplanationToString(*explanation_b));
}

TEST(GoldenPipelineTest, ThreadCountDoesNotChangeSelections) {
  Forest forest = TrainGoldenForest();
  SetNumThreads(1);
  auto serial = ExplainForest(forest, GoldenGefConfig());
  SetNumThreads(4);
  auto parallel = ExplainForest(forest, GoldenGefConfig());
  SetNumThreads(0);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);
  EXPECT_EQ(serial->selected_features, parallel->selected_features);
  EXPECT_EQ(serial->selected_pairs, parallel->selected_pairs);
  EXPECT_EQ(ExplanationToString(*serial),
            ExplanationToString(*parallel));
}

}  // namespace
}  // namespace gef
