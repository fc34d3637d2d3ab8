// Tests for the pluggable surrogate subsystem (src/surrogate,
// DESIGN.md §3.19): the backend registry, every registered backend's
// component recovery on a ground-truth additive + pairwise target, the
// boosted low-order fANOVA backend's purification invariants (mean-zero
// shapes, exact additive reconstruction) and text serialization
// round-trips, end-to-end pipeline selection through
// GefConfig.surrogate_backend, and the per-backend `.gefs` store
// section kinds.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "forest/gbdt_trainer.h"
#include "gef/explainer.h"
#include "gef/explanation_io.h"
#include "stats/metrics.h"
#include "store/store_builder.h"
#include "store/store_reader.h"
#include "surrogate/boosted_fanova.h"
#include "surrogate/registry.h"

namespace gef {
namespace {

std::string TmpPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------- registry

TEST(SurrogateRegistry, KnowsBuiltinBackends) {
  EXPECT_TRUE(SurrogateBackendExists("spline_gam"));
  EXPECT_TRUE(SurrogateBackendExists("boosted_fanova"));
  EXPECT_FALSE(SurrogateBackendExists("rule_list"));

  auto spline = CreateSurrogate("spline_gam");
  ASSERT_NE(spline, nullptr);
  EXPECT_EQ(spline->backend_name(), "spline_gam");
  EXPECT_FALSE(spline->fitted());

  auto fanova = CreateSurrogate("boosted_fanova");
  ASSERT_NE(fanova, nullptr);
  EXPECT_EQ(fanova->backend_name(), "boosted_fanova");

  EXPECT_EQ(CreateSurrogate("nope"), nullptr);
}

TEST(SurrogateRegistry, NamesAreSorted) {
  std::vector<std::string> names = SurrogateBackendNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "boosted_fanova");
  EXPECT_EQ(names[1], "spline_gam");
}

TEST(SurrogateRegistry, FromTextRejectsUnknownBackend) {
  auto parsed = SurrogateFromText("rule_list", "whatever");
  EXPECT_FALSE(parsed.ok());
}

// ------------------------------------------------ ground-truth fits

/// One fit per registered backend on the ground-truth additive +
/// pairwise target (data/synthetic.h): every univariate shape has a
/// closed form with zero mean under U[0,1] and the pair is a product of
/// mean-zero factors, so per-component assertions are possible. Each
/// backend is created by name and read through the Surrogate interface,
/// as the gef layer does.
struct GroundTruthFit {
  Dataset train;
  /// 64-point grids over [0,1], standing in for sampling domains
  /// (spline_gam puts its knots at their quantiles; boosted_fanova
  /// ignores them).
  std::vector<std::vector<double>> domains;
  std::unique_ptr<Surrogate> model;
};

const GroundTruthFit& Fitted(const std::string& backend) {
  static std::map<std::string, std::unique_ptr<GroundTruthFit>> fits;
  std::unique_ptr<GroundTruthFit>& fit = fits[backend];
  if (fit != nullptr) return *fit;
  fit = std::make_unique<GroundTruthFit>();
  Rng rng(1234);
  fit->train = MakeAdditivePairDataset(6000, {{0, 1}}, &rng,
                                       /*noise_sigma=*/0.05);
  std::vector<double> grid(64);
  for (size_t i = 0; i < grid.size(); ++i) {
    grid[i] = (static_cast<double>(i) + 0.5) / grid.size();
  }
  fit->domains.assign(kNumSyntheticFeatures, grid);
  SurrogateSpec spec;
  spec.selected_features = {0, 1, 2, 3, 4};
  spec.selected_pairs = {{0, 1}};
  spec.is_categorical.assign(5, false);
  spec.domains = &fit->domains;
  fit->model = CreateSurrogate(backend);
  EXPECT_NE(fit->model, nullptr) << backend;
  if (fit->model != nullptr) {
    EXPECT_TRUE(fit->model->Fit(spec, SurrogateConfig(), fit->train));
  }
  return *fit;
}

const BoostedFanovaSurrogate& FittedFanova() {
  return dynamic_cast<const BoostedFanovaSurrogate&>(
      *Fitted("boosted_fanova").model);
}

/// RMSE bounds of one backend against the ground truth.
struct ShapeBounds {
  double smooth;  // components a_0..a_3
  double step;    // a_4 = sign(x - 1/2)
  double pair;    // p(u, v)
  /// |marginal mean| of the fitted pair along the domain grid; 0 skips
  /// the check.
  double pair_margin;
  double target;  // the whole surface, noise-free probe
};

ShapeBounds BoundsFor(const std::string& backend) {
  // About twice the worst value over training seeds 1234 and 1-5 (smooth
  // 0.021, step 0.166, pair 0.015, margin 0.0096, target 0.164). A
  // smooth spline cannot follow the jump of a_4, hence its step bound.
  if (backend == "spline_gam") return {0.04, 0.33, 0.03, 0.02, 0.33};
  // The bin straddling 0.5 is off by up to the full jump of 2. Its pair
  // is purified against the training rows, not the grid; that exact
  // check is BoostedFanova.PurifiedShapesAreMeanZeroOnTrain.
  if (backend == "boosted_fanova") return {0.16, 0.16, 0.15, 0.0, 0.18};
  ADD_FAILURE() << "no ground-truth bounds for backend " << backend;
  return {};
}

class GroundTruthTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    Backends, GroundTruthTest, ::testing::ValuesIn(SurrogateBackendNames()),
    [](const ::testing::TestParamInfo<std::string>& backend) {
      return backend.param;
    });

TEST_P(GroundTruthTest, RecoversUnivariateShapes) {
  const Surrogate& model = *Fitted(GetParam()).model;
  const ShapeBounds bounds = BoundsFor(GetParam());
  std::vector<double> row(5, 0.5);
  for (int feature = 0; feature < 5; ++feature) {
    double se = 0.0;
    int grid = 0;
    // Stay off the exact endpoints: the outermost bins extrapolate.
    for (double x = 0.025; x < 0.98; x += 0.005, ++grid) {
      row.assign(5, 0.5);
      row[feature] = x;
      double got = model.TermContribution(1 + feature, row);
      double want = AdditivePairComponent(feature, x);
      se += (got - want) * (got - want);
    }
    double rmse = std::sqrt(se / grid);
    EXPECT_LT(rmse, feature == 4 ? bounds.step : bounds.smooth)
        << "component " << feature;
  }
}

TEST_P(GroundTruthTest, RecoversPairInteraction) {
  const GroundTruthFit& fit = Fitted(GetParam());
  const ShapeBounds bounds = BoundsFor(GetParam());
  std::vector<double> row(5, 0.5);
  double se = 0.0;
  int grid = 0;
  for (double u = 0.05; u < 0.96; u += 0.05) {
    for (double v = 0.05; v < 0.96; v += 0.05, ++grid) {
      row[0] = u;
      row[1] = v;
      double got = fit.model->TermContribution(6, row);
      double want = AdditivePairInteraction(u, v);
      se += (got - want) * (got - want);
    }
  }
  EXPECT_LT(std::sqrt(se / grid), bounds.pair);

  // A pure pair: its mean along either axis of the domain grid is ~0,
  // so no main effect leaked into it.
  if (bounds.pair_margin == 0.0) return;
  const std::vector<double>& axis = fit.domains[0];
  for (int side = 0; side < 2; ++side) {
    for (double fixed : axis) {
      double mean = 0.0;
      for (double moving : axis) {
        row[side] = fixed;
        row[1 - side] = moving;
        mean += fit.model->TermContribution(6, row);
      }
      mean /= static_cast<double>(axis.size());
      EXPECT_LT(std::fabs(mean), bounds.pair_margin)
          << "axis " << side << " at " << fixed;
    }
  }
}

TEST_P(GroundTruthTest, TracksGroundTruthTarget) {
  const Surrogate& model = *Fitted(GetParam()).model;
  Rng rng(99);
  Dataset probe =
      MakeAdditivePairDataset(2000, {{0, 1}}, &rng, /*noise_sigma=*/0.0);
  EXPECT_LT(Rmse(model.PredictBatch(probe), probe.targets()),
            BoundsFor(GetParam()).target);
}

// ---------------------------------------------------- boosted fANOVA fit

TEST(BoostedFanova, FitsAndExposesTerms) {
  const BoostedFanovaSurrogate& model = FittedFanova();
  EXPECT_TRUE(model.fitted());
  EXPECT_EQ(model.backend_name(), "boosted_fanova");
  ASSERT_EQ(model.num_terms(), 7u);  // intercept + 5 uni + 1 pair

  EXPECT_TRUE(model.TermFeatures(0).empty());
  EXPECT_EQ(model.TermLabel(0), "intercept");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(model.TermFeatures(1 + i), std::vector<int>{i});
    EXPECT_FALSE(model.TermIsFactor(1 + i));
  }
  EXPECT_EQ(model.TermLabel(1), "g(f0)");
  EXPECT_EQ(model.TermFeatures(6), (std::vector<int>{0, 1}));
  EXPECT_EQ(model.TermLabel(6), "g(f0, f1)");

  // The target is mean-zero by construction.
  EXPECT_NEAR(model.intercept(), 0.0, 0.05);
  // Every real component carries signal.
  for (size_t t = 1; t < model.num_terms(); ++t) {
    EXPECT_GT(model.TermImportance(t), 0.05) << "term " << t;
  }
}

TEST(BoostedFanova, PurifiedShapesAreMeanZeroOnTrain) {
  const Dataset& train = Fitted("boosted_fanova").train;
  const BoostedFanovaSurrogate& model = FittedFanova();
  std::vector<double> row;
  // Univariate shapes: centered exactly over the training rows.
  for (size_t t = 1; t <= 5; ++t) {
    double mean = 0.0;
    for (size_t i = 0; i < train.num_rows(); ++i) {
      train.GetRowInto(i, &row);
      mean += model.TermContribution(t, row);
    }
    mean /= static_cast<double>(train.num_rows());
    EXPECT_NEAR(mean, 0.0, 1e-9) << "term " << t;
  }
  // The pair surface: conditional means along both axes vanish under
  // the empirical distribution (that is what purification enforces).
  const BoostedFanovaSurrogate::Shape2d& pair = model.pair_shapes()[0];
  size_t na = pair.breaks_a.size() + 1, nb = pair.breaks_b.size() + 1;
  std::vector<double> joint(na * nb, 0.0);
  for (size_t i = 0; i < train.num_rows(); ++i) {
    train.GetRowInto(i, &row);
    size_t bx = std::lower_bound(pair.breaks_a.begin(),
                                 pair.breaks_a.end(), row[0]) -
                pair.breaks_a.begin();
    size_t by = std::lower_bound(pair.breaks_b.begin(),
                                 pair.breaks_b.end(), row[1]) -
                pair.breaks_b.begin();
    joint[bx * nb + by] += 1.0;
  }
  for (size_t bx = 0; bx < na; ++bx) {
    double m = 0.0, w = 0.0;
    for (size_t by = 0; by < nb; ++by) {
      m += joint[bx * nb + by] * pair.values[bx * nb + by];
      w += joint[bx * nb + by];
    }
    if (w > 0.0) {
      EXPECT_NEAR(m / w, 0.0, 1e-6) << "row " << bx;
    }
  }
  for (size_t by = 0; by < nb; ++by) {
    double m = 0.0, w = 0.0;
    for (size_t bx = 0; bx < na; ++bx) {
      m += joint[bx * nb + by] * pair.values[bx * nb + by];
      w += joint[bx * nb + by];
    }
    if (w > 0.0) {
      EXPECT_NEAR(m / w, 0.0, 1e-6) << "col " << by;
    }
  }
}

TEST(BoostedFanova, ContributionsReconstructPrediction) {
  const BoostedFanovaSurrogate& model = FittedFanova();
  Rng rng(42);
  std::vector<double> row(5);
  for (int trial = 0; trial < 50; ++trial) {
    for (double& x : row) x = rng.Uniform();
    double sum = model.intercept();
    for (size_t t = 0; t < model.num_terms(); ++t) {
      sum += model.TermContribution(t, row);
    }
    EXPECT_NEAR(sum, model.PredictRaw(row), 1e-12);
    // Least squares on the response scale: raw == response.
    EXPECT_EQ(model.PredictRaw(row), model.Predict(row));
    EffectInterval effect = model.TermEffect(1, row, 1.959964);
    EXPECT_EQ(effect.lower, effect.value);
    EXPECT_EQ(effect.upper, effect.value);
  }
}

TEST(BoostedFanova, DescribeFitNamesTheFamily) {
  std::string describe = FittedFanova().DescribeFit();
  EXPECT_EQ(describe.rfind("fANOVA: rounds = 200, shrinkage = 0.1", 0), 0u)
      << describe;
  EXPECT_NE(describe.find("components = 6"), std::string::npos);
}

// ------------------------------------------------- text serialization

TEST(BoostedFanova, TextRoundTripIsExact) {
  const BoostedFanovaSurrogate& model = FittedFanova();
  std::string text = model.SerializeText();
  auto parsed = SurrogateFromText("boosted_fanova", text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Surrogate& restored = **parsed;

  EXPECT_EQ(restored.backend_name(), "boosted_fanova");
  EXPECT_EQ(restored.num_terms(), model.num_terms());
  // 17-significant-digit text round-trips IEEE doubles exactly, so the
  // canonical serialization (and with it ContentHash) is a fixpoint.
  EXPECT_EQ(restored.SerializeText(), text);
  EXPECT_EQ(restored.ContentHash(), model.ContentHash());

  Rng rng(7);
  std::vector<double> row(5);
  for (int trial = 0; trial < 50; ++trial) {
    for (double& x : row) x = rng.Uniform();
    EXPECT_EQ(restored.PredictRaw(row), model.PredictRaw(row));
    EXPECT_EQ(restored.TermContribution(6, row),
              model.TermContribution(6, row));
  }
}

TEST(BoostedFanova, FromTextRejectsMalformedInput) {
  EXPECT_FALSE(BoostedFanovaSurrogate::FromText("").ok());
  EXPECT_FALSE(BoostedFanovaSurrogate::FromText("spline v1\n").ok());
  EXPECT_FALSE(
      BoostedFanovaSurrogate::FromText("fanova v1\nrounds -3\n").ok());
  // Structurally valid prefix, inconsistent shape sizes.
  EXPECT_FALSE(BoostedFanovaSurrogate::FromText(
                   "fanova v1\nrounds 1\nshrinkage 0.1\nintercept 0\n"
                   "num_uni 1\nuni 0 0\nbreaks 1 0.5\nvalues 3 1 2 3\n"
                   "num_pairs 0\nimportances 2 0 1\n")
                   .ok());
  // Unsorted breaks.
  EXPECT_FALSE(BoostedFanovaSurrogate::FromText(
                   "fanova v1\nrounds 1\nshrinkage 0.1\nintercept 0\n"
                   "num_uni 1\nuni 0 0\nbreaks 2 0.7 0.2\n"
                   "values 3 1 2 3\nnum_pairs 0\nimportances 2 0 1\n")
                   .ok());
}

// ------------------------------------------------- pipeline integration

Forest TrainAdditivePairForest() {
  Rng rng(801);
  Dataset data = MakeAdditivePairDataset(3000, {{0, 1}}, &rng);
  GbdtConfig config;
  config.num_trees = 80;
  config.num_leaves = 16;
  config.learning_rate = 0.15;
  config.min_samples_leaf = 10;
  return TrainGbdt(data, nullptr, config).forest;
}

GefConfig FanovaPipelineConfig() {
  GefConfig config;
  config.num_univariate = 5;
  config.num_bivariate = 1;
  config.num_samples = 4000;
  config.k = 32;
  config.surrogate_backend = "boosted_fanova";
  config.fanova_rounds = 120;
  return config;
}

TEST(SurrogatePipeline, FanovaBackendRunsEndToEnd) {
  Forest forest = TrainAdditivePairForest();
  auto explanation = ExplainForest(forest, FanovaPipelineConfig());
  ASSERT_NE(explanation, nullptr);
  ASSERT_TRUE(explanation->fitted());
  EXPECT_EQ(explanation->surrogate->backend_name(), "boosted_fanova");
  EXPECT_EQ(explanation->selected_features.size(), 5u);
  EXPECT_EQ(explanation->selected_pairs.size(), 1u);
  EXPECT_EQ(explanation->surrogate->num_terms(), 7u);
  // The forest is itself low-order additive, so the fANOVA surrogate
  // should track it closely on held-out D*.
  EXPECT_LT(explanation->fidelity_rmse_test, 0.25);
}

TEST(SurrogatePipeline, ExplanationIoPreservesBackend) {
  Forest forest = TrainAdditivePairForest();
  auto explanation = ExplainForest(forest, FanovaPipelineConfig());
  ASSERT_NE(explanation, nullptr);

  std::string text = ExplanationToString(*explanation);
  EXPECT_NE(text.find("backend boosted_fanova"), std::string::npos);

  auto loaded = ExplanationFromString(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->surrogate->backend_name(), "boosted_fanova");
  EXPECT_EQ((*loaded)->surrogate->ContentHash(),
            explanation->surrogate->ContentHash());

  Rng rng(5);
  std::vector<double> row(forest.num_features());
  for (int trial = 0; trial < 20; ++trial) {
    for (double& x : row) x = rng.Uniform();
    EXPECT_EQ((*loaded)->surrogate->Predict(row),
              explanation->surrogate->Predict(row));
  }
}

// ---------------------------------------------------------- store kinds

TEST(SurrogateStore, FanovaPacksUnderItsOwnSectionKind) {
  Forest forest = TrainAdditivePairForest();
  auto explanation = ExplainForest(forest, FanovaPipelineConfig());
  ASSERT_NE(explanation, nullptr);
  const std::string text = ExplanationToString(*explanation);

  const std::string path = TmpPath("gef_surrogate_fanova.gefs");
  store::StoreBuilder builder;
  ASSERT_TRUE(builder.AddForest("m", forest).ok());
  ASSERT_TRUE(builder.AddSurrogate("m", text, "boosted_fanova").ok());
  ASSERT_TRUE(builder.WriteTo(path).ok());

  auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  bool found_kind = false;
  for (const auto& section : reader->sections()) {
    if (section.kind ==
        static_cast<uint32_t>(store::SectionKind::kSurrogateFanova)) {
      found_kind = true;
      EXPECT_EQ(section.name, "m");
    }
    EXPECT_NE(section.kind,
              static_cast<uint32_t>(store::SectionKind::kSurrogate));
  }
  EXPECT_TRUE(found_kind);

  // SurrogateText is kind-agnostic, and the payload reconstructs the
  // fanova-backed explanation (the text names its backend).
  auto stored = reader->SurrogateText("m");
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(*stored, text);
  auto loaded = ExplanationFromString(*stored);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->surrogate->backend_name(), "boosted_fanova");

  std::remove(path.c_str());
}

TEST(SurrogateStore, RejectsBackendWithoutSectionKind) {
  Forest forest = TrainAdditivePairForest();
  store::StoreBuilder builder;
  ASSERT_TRUE(builder.AddForest("m", forest).ok());
  Status status = builder.AddSurrogate("m", "text", "rule_list");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("no store section kind"),
            std::string::npos);
}

}  // namespace
}  // namespace gef
