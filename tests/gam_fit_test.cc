// Tests for GAM fitting: recovery of additive ground truths, the logit
// link, GCV behaviour, credible intervals, term contributions and
// importances.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "gam/gam.h"
#include "stats/descriptive.h"
#include "stats/metrics.h"
#include "stats/rng.h"

namespace gef {
namespace {

TermList SplineTerms(int num_features, int basis = 12) {
  TermList terms;
  terms.push_back(std::make_unique<InterceptTerm>());
  for (int f = 0; f < num_features; ++f) {
    terms.push_back(std::make_unique<SplineTerm>(f, 0.0, 1.0, basis));
  }
  return terms;
}

Dataset AdditiveSineData(size_t n, Rng* rng, double noise = 0.05) {
  // y = 3 + sin(2πx0) + 2·x1² with noise.
  Dataset d(std::vector<std::string>{"x0", "x1"});
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng->Uniform();
    double x1 = rng->Uniform();
    double y = 3.0 + std::sin(2.0 * std::numbers::pi * x0) +
               2.0 * x1 * x1 + rng->Normal(0.0, noise);
    d.AppendRow({x0, x1}, y);
  }
  return d;
}

TEST(GamFitTest, RecoversAdditiveFunction) {
  Rng rng(121);
  Dataset data = AdditiveSineData(2000, &rng);
  Gam gam;
  ASSERT_TRUE(gam.Fit(SplineTerms(2), data, GamConfig{}));
  double r2 = RSquared(gam.PredictBatch(data), data.targets());
  EXPECT_GT(r2, 0.98);
}

TEST(GamFitTest, InterceptAbsorbsTheMean) {
  Rng rng(122);
  Dataset data = AdditiveSineData(2000, &rng);
  Gam gam;
  ASSERT_TRUE(gam.Fit(SplineTerms(2), data, GamConfig{}));
  // Components are centered, so the intercept is close to mean(y):
  // 3 + E[sin] (=0) + 2·E[x²] (=2/3).
  EXPECT_NEAR(gam.intercept(), Mean(data.targets()), 0.05);
}

TEST(GamFitTest, TermContributionsSumToPrediction) {
  Rng rng(123);
  Dataset data = AdditiveSineData(800, &rng);
  Gam gam;
  ASSERT_TRUE(gam.Fit(SplineTerms(2), data, GamConfig{}));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> x = {rng.Uniform(), rng.Uniform()};
    double total = gam.intercept();
    for (size_t t = 0; t < gam.num_terms(); ++t) {
      if (gam.term(t).type() != TermType::kIntercept) {
        total += gam.TermContribution(t, x);
      }
    }
    EXPECT_NEAR(total, gam.PredictRaw(x), 1e-9);
  }
}

TEST(GamFitTest, ComponentsMatchGroundTruthShape) {
  Rng rng(124);
  Dataset data = AdditiveSineData(3000, &rng);
  Gam gam;
  ASSERT_TRUE(gam.Fit(SplineTerms(2), data, GamConfig{}));
  // Correlate the fitted s(x0) with sin(2πx) over a grid.
  std::vector<double> fitted, truth;
  for (double x = 0.02; x < 1.0; x += 0.02) {
    fitted.push_back(gam.TermContribution(1, {x, 0.5}));
    truth.push_back(std::sin(2.0 * std::numbers::pi * x));
  }
  EXPECT_GT(PearsonCorrelation(fitted, truth), 0.99);
}

TEST(GamFitTest, HeavySmoothingFlattensComponents) {
  Rng rng(125);
  Dataset data = AdditiveSineData(1000, &rng);
  GamConfig smooth;
  smooth.lambda_grid = {1e7};
  Gam gam;
  ASSERT_TRUE(gam.Fit(SplineTerms(2), data, smooth));
  // With a huge λ the spline is nearly affine in its coefficients: the
  // sine component cannot be tracked, so the fit degrades.
  double r2 = RSquared(gam.PredictBatch(data), data.targets());
  EXPECT_LT(r2, 0.9);
  EXPECT_LT(gam.edof(), 8.0);
}

TEST(GamFitTest, GcvPrefersModerateLambdaOnNoisyData) {
  Rng rng(126);
  Dataset data = AdditiveSineData(400, &rng, /*noise=*/0.5);
  GamConfig config;
  config.lambda_grid = {1e-6, 1e-2, 1.0, 1e2, 1e6};
  Gam gam;
  ASSERT_TRUE(gam.Fit(SplineTerms(2, 20), data, config));
  EXPECT_GT(gam.lambda(), 1e-6);
  EXPECT_LT(gam.lambda(), 1e6);
}

TEST(GamFitTest, EdofDecreasesWithLambda) {
  Rng rng(127);
  Dataset data = AdditiveSineData(600, &rng);
  GamConfig loose, tight;
  loose.lambda_grid = {1e-4};
  tight.lambda_grid = {1e4};
  Gam gam_loose, gam_tight;
  ASSERT_TRUE(gam_loose.Fit(SplineTerms(2), data, loose));
  ASSERT_TRUE(gam_tight.Fit(SplineTerms(2), data, tight));
  EXPECT_GT(gam_loose.edof(), gam_tight.edof());
}

TEST(GamFitTest, CredibleIntervalContainsEstimateAndHasPositiveWidth) {
  Rng rng(128);
  Dataset data = AdditiveSineData(500, &rng, 0.3);
  Gam gam;
  ASSERT_TRUE(gam.Fit(SplineTerms(2), data, GamConfig{}));
  for (double x : {0.1, 0.5, 0.9}) {
    EffectInterval effect = gam.TermEffect(1, {x, 0.5});
    EXPECT_LE(effect.lower, effect.value);
    EXPECT_GE(effect.upper, effect.value);
    EXPECT_GT(effect.upper - effect.lower, 0.0);
  }
}

TEST(GamFitTest, IntervalWidensWithNoise) {
  Rng rng(129);
  Dataset quiet = AdditiveSineData(800, &rng, 0.01);
  Dataset loud = AdditiveSineData(800, &rng, 1.0);
  GamConfig config;
  config.lambda_grid = {1.0};
  Gam gam_quiet, gam_loud;
  ASSERT_TRUE(gam_quiet.Fit(SplineTerms(2), quiet, config));
  ASSERT_TRUE(gam_loud.Fit(SplineTerms(2), loud, config));
  EffectInterval eq = gam_quiet.TermEffect(1, {0.5, 0.5});
  EffectInterval el = gam_loud.TermEffect(1, {0.5, 0.5});
  EXPECT_GT(el.upper - el.lower, eq.upper - eq.lower);
}

TEST(GamFitTest, TermImportanceRanksStrongerComponentHigher) {
  Rng rng(130);
  // x0 has a large-amplitude effect, x1 a tiny one.
  Dataset d(std::vector<std::string>{"x0", "x1"});
  for (int i = 0; i < 1500; ++i) {
    double x0 = rng.Uniform(), x1 = rng.Uniform();
    d.AppendRow({x0, x1},
                5.0 * std::sin(4.0 * x0) + 0.1 * x1 +
                    rng.Normal(0.0, 0.05));
  }
  Gam gam;
  ASSERT_TRUE(gam.Fit(SplineTerms(2), d, GamConfig{}));
  const auto& importance = gam.term_importances();
  EXPECT_GT(importance[1], 5.0 * importance[2]);
}

TEST(GamFitTest, FactorTermFitsGroupMeans) {
  Rng rng(131);
  Dataset d(std::vector<std::string>{"group"});
  for (int i = 0; i < 900; ++i) {
    double g = static_cast<double>(rng.UniformInt(3));
    double y = (g == 0 ? 1.0 : (g == 1 ? 5.0 : -2.0)) +
               rng.Normal(0.0, 0.1);
    d.AppendRow({g}, y);
  }
  TermList terms;
  terms.push_back(std::make_unique<InterceptTerm>());
  terms.push_back(std::make_unique<FactorTerm>(
      0, std::vector<double>{0.0, 1.0, 2.0}));
  GamConfig config;
  config.lambda_grid = {1e-3};
  Gam gam;
  ASSERT_TRUE(gam.Fit(std::move(terms), d, config));
  EXPECT_NEAR(gam.Predict({0.0}), 1.0, 0.1);
  EXPECT_NEAR(gam.Predict({1.0}), 5.0, 0.1);
  EXPECT_NEAR(gam.Predict({2.0}), -2.0, 0.1);
}

TEST(GamFitTest, TensorTermCapturesInteraction) {
  Rng rng(132);
  // Pure multiplicative interaction: additive-only model must underfit.
  Dataset d(std::vector<std::string>{"a", "b"});
  for (int i = 0; i < 2500; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    d.AppendRow({a, b}, 4.0 * (a - 0.5) * (b - 0.5) +
                            rng.Normal(0.0, 0.02));
  }

  Gam additive;
  ASSERT_TRUE(additive.Fit(SplineTerms(2), d, GamConfig{}));
  double r2_additive = RSquared(additive.PredictBatch(d), d.targets());

  TermList with_tensor = SplineTerms(2);
  with_tensor.push_back(
      std::make_unique<TensorTerm>(0, 0.0, 1.0, 1, 0.0, 1.0, 6));
  Gam interaction;
  ASSERT_TRUE(interaction.Fit(std::move(with_tensor), d, GamConfig{}));
  double r2_tensor = RSquared(interaction.PredictBatch(d), d.targets());

  EXPECT_LT(r2_additive, 0.3);
  EXPECT_GT(r2_tensor, 0.9);
}

TEST(GamFitTest, LogitLinkFitsProbabilities) {
  Rng rng(133);
  Dataset d(std::vector<std::string>{"x"});
  for (int i = 0; i < 3000; ++i) {
    double x = rng.Uniform();
    double p = 1.0 / (1.0 + std::exp(-8.0 * (x - 0.5)));
    d.AppendRow({x}, rng.Uniform() < p ? 1.0 : 0.0);
  }
  TermList terms;
  terms.push_back(std::make_unique<InterceptTerm>());
  terms.push_back(std::make_unique<SplineTerm>(0, 0.0, 1.0, 10));
  GamConfig config;
  config.link = LinkType::kLogit;
  Gam gam;
  ASSERT_TRUE(gam.Fit(std::move(terms), d, config));
  EXPECT_LT(gam.Predict({0.1}), 0.15);
  EXPECT_GT(gam.Predict({0.9}), 0.85);
  EXPECT_NEAR(gam.Predict({0.5}), 0.5, 0.12);
  // Predictions are probabilities.
  for (double x = 0.0; x <= 1.0; x += 0.1) {
    double p = gam.Predict({x});
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(GamFitTest, LogitLinkOnSoftLabels) {
  // GEF fits the GAM on forest *probabilities* — continuous y in (0,1).
  Rng rng(134);
  Dataset d(std::vector<std::string>{"x"});
  for (int i = 0; i < 1500; ++i) {
    double x = rng.Uniform();
    double p = 1.0 / (1.0 + std::exp(-6.0 * (x - 0.5)));
    d.AppendRow({x}, p);
  }
  TermList terms;
  terms.push_back(std::make_unique<InterceptTerm>());
  terms.push_back(std::make_unique<SplineTerm>(0, 0.0, 1.0, 10));
  GamConfig config;
  config.link = LinkType::kLogit;
  Gam gam;
  ASSERT_TRUE(gam.Fit(std::move(terms), d, config));
  for (double x : {0.2, 0.5, 0.8}) {
    double expected = 1.0 / (1.0 + std::exp(-6.0 * (x - 0.5)));
    EXPECT_NEAR(gam.Predict({x}), expected, 0.05);
  }
}

TEST(GamFitTest, CredibleIntervalCoverageIsCalibrated) {
  // Statistical property: on repeated draws from a known additive model,
  // the 95% Bayesian interval of s(x0) at a fixed interior point should
  // contain the true (centered) component value close to 95% of the
  // time. Penalized splines make the interval approximate (Wood 2006
  // reports across-the-function coverage near nominal), so we assert a
  // generous band rather than exact calibration.
  int covered = 0;
  const int replications = 40;
  const double x_eval = 0.37;
  // True component of x0 is sin(2πx); its mean over U[0,1] is 0.
  const double truth = std::sin(2.0 * std::numbers::pi * x_eval);
  for (int rep = 0; rep < replications; ++rep) {
    Rng rng(9000 + rep);
    Dataset data = AdditiveSineData(600, &rng, 0.3);
    Gam gam;
    GamConfig config;
    config.lambda_grid = {1e-2, 1e-1, 1.0};
    ASSERT_TRUE(gam.Fit(SplineTerms(2), data, config));
    EffectInterval effect = gam.TermEffect(1, {x_eval, 0.5});
    if (truth >= effect.lower && truth <= effect.upper) ++covered;
  }
  double coverage = static_cast<double>(covered) / replications;
  EXPECT_GE(coverage, 0.70);
  EXPECT_LE(coverage, 1.0);
}

TEST(GamFitTest, PerTermLambdaNeverWorsensGcv) {
  Rng rng(135);
  Dataset data = AdditiveSineData(800, &rng, 0.3);
  GamConfig shared;
  GamConfig per_term = shared;
  per_term.per_term_lambda = true;
  Gam gam_shared, gam_per_term;
  ASSERT_TRUE(gam_shared.Fit(SplineTerms(2), data, shared));
  ASSERT_TRUE(gam_per_term.Fit(SplineTerms(2), data, per_term));
  EXPECT_LE(gam_per_term.gcv_score(), gam_shared.gcv_score() + 1e-12);
}

TEST(GamFitTest, PerTermLambdaAdaptsToComponentSmoothness) {
  Rng rng(136);
  // x0 drives a very wiggly component, x1 a straight line: coordinate
  // descent should give x0 a smaller λ than x1.
  Dataset d(std::vector<std::string>{"wiggly", "straight"});
  for (int i = 0; i < 2500; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    d.AppendRow({a, b},
                std::sin(25.0 * a) + b + rng.Normal(0.0, 0.05));
  }
  GamConfig config;
  config.per_term_lambda = true;
  config.per_term_rounds = 3;
  Gam gam;
  ASSERT_TRUE(gam.Fit(SplineTerms(2, 20), d, config));
  const auto& lambdas = gam.term_lambdas();
  ASSERT_EQ(lambdas.size(), 3u);  // intercept + 2 splines
  EXPECT_LT(lambdas[1], lambdas[2]);
  // And the fit is tight.
  EXPECT_GT(RSquared(gam.PredictBatch(d), d.targets()), 0.97);
}

TEST(GamFitTest, SharedLambdaVectorIsConstant) {
  Rng rng(137);
  Dataset data = AdditiveSineData(500, &rng);
  Gam gam;
  ASSERT_TRUE(gam.Fit(SplineTerms(2), data, GamConfig{}));
  const auto& lambdas = gam.term_lambdas();
  for (double l : lambdas) EXPECT_DOUBLE_EQ(l, gam.lambda());
}

TEST(GamFitDeathTest, MoreCoefficientsThanRowsAborts) {
  Dataset d(std::vector<std::string>{"x"});
  for (int i = 0; i < 5; ++i) {
    d.AppendRow({i * 0.2}, 0.0);
  }
  Gam gam;
  GamConfig config;
  EXPECT_DEATH(gam.Fit(SplineTerms(1, 20), d, config), "coefficients");
}

TEST(GamFitDeathTest, NoPirlsIterationAborts) {
  Rng rng(138);
  Dataset data = AdditiveSineData(200, &rng);
  GamConfig config;
  config.link = LinkType::kLogit;
  config.max_pirls_iters = 0;
  Gam gam;
  EXPECT_DEATH(gam.Fit(SplineTerms(2), data, config), "max_pirls_iters");
}

TEST(GamFitDeathTest, PredictBeforeFitAborts) {
  Gam gam;
  EXPECT_DEATH(gam.PredictRaw({0.5}), "unfitted");
}

}  // namespace
}  // namespace gef
