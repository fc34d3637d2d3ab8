// Tests for GAM text (de)serialization: exact round-trip of predictions,
// term contributions and credible intervals, plus malformed-input
// rejection. The fixture fits a Gam directly, so these tests exercise
// the gam layer alone; explanation_io_test covers the round trip of a
// pipeline-fitted surrogate.

#include <algorithm>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "gam/gam_io.h"

namespace gef {
namespace {

class GamIoFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(66);
    Dataset data = MakeGPrimeDataset(2000, &rng);
    auto quantile_basis = [&data](int feature, int num_basis) {
      std::vector<double> sites = data.Column(feature);
      std::sort(sites.begin(), sites.end());
      return BSplineBasis::FromSites(sites, num_basis);
    };
    // Every spline layout the text format stores: uniform knots,
    // quantile knots, and a tensor over one of each.
    TermList terms;
    terms.push_back(std::make_unique<InterceptTerm>());
    terms.push_back(std::make_unique<SplineTerm>(0, 0.0, 1.0, 10));
    terms.push_back(std::make_unique<SplineTerm>(1, quantile_basis(1, 10)));
    terms.push_back(std::make_unique<SplineTerm>(2, quantile_basis(2, 10)));
    terms.push_back(std::make_unique<TensorTerm>(
        3, quantile_basis(3, 6), 4, BSplineBasis(0.0, 1.0, 6)));
    ASSERT_TRUE(gam_.Fit(std::move(terms), data, GamConfig()));
  }

  Gam gam_;
};

TEST_F(GamIoFixture, RoundTripPreservesPredictions) {
  auto restored = GamFromString(GamToString(gam_));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Rng rng(67);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x(5);
    for (double& v : x) v = rng.Uniform(-0.2, 1.2);
    EXPECT_NEAR(restored->PredictRaw(x), gam_.PredictRaw(x), 1e-12);
    EXPECT_NEAR(restored->Predict(x), gam_.Predict(x), 1e-12);
  }
}

TEST_F(GamIoFixture, RoundTripPreservesTermStructure) {
  auto restored = GamFromString(GamToString(gam_));
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->num_terms(), gam_.num_terms());
  for (size_t t = 0; t < gam_.num_terms(); ++t) {
    EXPECT_EQ(restored->term(t).type(), gam_.term(t).type());
    EXPECT_EQ(restored->term(t).num_coeffs(), gam_.term(t).num_coeffs());
    EXPECT_EQ(restored->TermLabel(t), gam_.TermLabel(t));
  }
  EXPECT_DOUBLE_EQ(restored->lambda(), gam_.lambda());
  EXPECT_DOUBLE_EQ(restored->edof(), gam_.edof());
  EXPECT_DOUBLE_EQ(restored->scale(), gam_.scale());
  EXPECT_EQ(restored->term_lambdas(), gam_.term_lambdas());
  EXPECT_EQ(restored->term_importances(), gam_.term_importances());
}

TEST_F(GamIoFixture, RoundTripPreservesEffectIntervals) {
  auto restored = GamFromString(GamToString(gam_));
  ASSERT_TRUE(restored.ok());
  std::vector<double> x = {0.3, 0.6, 0.2, 0.8, 0.5};
  for (size_t t = 1; t < gam_.num_terms(); ++t) {
    EffectInterval a = gam_.TermEffect(t, x);
    EffectInterval b = restored->TermEffect(t, x);
    EXPECT_NEAR(a.value, b.value, 1e-12);
    EXPECT_NEAR(a.lower, b.lower, 1e-12);
    EXPECT_NEAR(a.upper, b.upper, 1e-12);
  }
}

TEST_F(GamIoFixture, TruncatedInputRejected) {
  std::string text = GamToString(gam_);
  auto result = GamFromString(text.substr(0, text.size() / 3));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST_F(GamIoFixture, TamperedTermRejected) {
  std::string text = GamToString(gam_);
  size_t pos = text.find("term spline");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("term spline").size(), "term mystery");
  EXPECT_FALSE(GamFromString(text).ok());
}

TEST(GamIoTest, BadMagicRejected) {
  EXPECT_FALSE(GamFromString("not a gam\n").ok());
  EXPECT_FALSE(GamFromString("").ok());
}

TEST(GamIoDeathTest, SerializingUnfittedGamAborts) {
  Gam gam;
  EXPECT_DEATH(GamToString(gam), "unfitted");
}

TEST(GamIoTest, LogitGamRoundTrips) {
  Rng rng(68);
  Dataset d(std::vector<std::string>{"x"});
  for (int i = 0; i < 800; ++i) {
    double x = rng.Uniform();
    d.AppendRow({x}, x > 0.5 ? 1.0 : 0.0);
  }
  TermList terms;
  terms.push_back(std::make_unique<InterceptTerm>());
  terms.push_back(std::make_unique<SplineTerm>(0, 0.0, 1.0, 8));
  GamConfig config;
  config.link = LinkType::kLogit;
  Gam gam;
  ASSERT_TRUE(gam.Fit(std::move(terms), d, config));
  auto restored = GamFromString(GamToString(gam));
  ASSERT_TRUE(restored.ok());
  for (double x : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(restored->Predict({x}), gam.Predict({x}), 1e-12);
  }
}

}  // namespace
}  // namespace gef
