// Tests for the five sampling-domain strategies and D* generation,
// including parameterized invariant sweeps across strategies.

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "forest/gbdt_trainer.h"
#include "gef/sampling.h"

namespace gef {
namespace {

std::vector<double> SortedThresholds() {
  return {0.1, 0.2, 0.2, 0.3, 0.45, 0.5, 0.5, 0.5, 0.55, 0.7, 0.9};
}

TEST(SamplingDomainTest, AllThresholdsMidpointsAndExtension) {
  std::vector<double> thresholds = {0.0, 0.2, 0.6, 1.0};
  Rng rng(601);
  auto domain = BuildSamplingDomain(
      thresholds, SamplingStrategy::kAllThresholds, 0, 0.05, &rng);
  // Midpoints 0.1, 0.4, 0.8 plus extremes 0 - ε and 1 + ε with ε = 0.05.
  ASSERT_EQ(domain.size(), 5u);
  EXPECT_DOUBLE_EQ(domain[0], -0.05);
  EXPECT_DOUBLE_EQ(domain[1], 0.1);
  EXPECT_DOUBLE_EQ(domain[2], 0.4);
  EXPECT_DOUBLE_EQ(domain[3], 0.8);
  EXPECT_DOUBLE_EQ(domain[4], 1.05);
}

TEST(SamplingDomainTest, AllThresholdsDeduplicatesRepeatedThresholds) {
  std::vector<double> thresholds = {0.5, 0.5, 0.5};
  Rng rng(602);
  auto domain = BuildSamplingDomain(
      thresholds, SamplingStrategy::kAllThresholds, 0, 0.05, &rng);
  // Single distinct threshold: ε falls back to a positive default and
  // the domain brackets the split.
  ASSERT_EQ(domain.size(), 2u);
  EXPECT_LT(domain[0], 0.5);
  EXPECT_GT(domain[1], 0.5);
}

TEST(SamplingDomainTest, KQuantileFollowsDensity) {
  // Thresholds concentrated near 0.5: quantile points must concentrate
  // there too.
  std::vector<double> thresholds;
  for (int i = 0; i < 90; ++i) thresholds.push_back(0.5 + 0.001 * i);
  for (int i = 0; i < 10; ++i) thresholds.push_back(0.1 * i / 10.0);
  std::sort(thresholds.begin(), thresholds.end());
  Rng rng(603);
  auto domain = BuildSamplingDomain(
      thresholds, SamplingStrategy::kKQuantile, 10, 0.05, &rng);
  int near_half = 0;
  for (double v : domain) near_half += (v > 0.4 && v < 0.7) ? 1 : 0;
  EXPECT_GE(near_half, static_cast<int>(domain.size()) - 2);
}

TEST(SamplingDomainTest, EquiWidthIsEvenlySpaced) {
  auto thresholds = SortedThresholds();
  Rng rng(604);
  auto domain = BuildSamplingDomain(
      thresholds, SamplingStrategy::kEquiWidth, 9, 0.05, &rng);
  ASSERT_EQ(domain.size(), 9u);
  double step = domain[1] - domain[0];
  for (size_t i = 2; i < domain.size(); ++i) {
    EXPECT_NEAR(domain[i] - domain[i - 1], step, 1e-12);
  }
  // Spans the ε-extended range.
  double eps = 0.05 * (0.9 - 0.1);
  EXPECT_DOUBLE_EQ(domain.front(), 0.1 - eps);
  EXPECT_DOUBLE_EQ(domain.back(), 0.9 + eps);
}

TEST(SamplingDomainTest, KMeansReducesClustersForFewDistinct) {
  std::vector<double> thresholds = {0.1, 0.1, 0.9, 0.9};
  Rng rng(605);
  auto domain = BuildSamplingDomain(thresholds,
                                    SamplingStrategy::kKMeans, 10, 0.05,
                                    &rng);
  // k = min(|distinct|, K) = 2.
  ASSERT_EQ(domain.size(), 2u);
  EXPECT_DOUBLE_EQ(domain[0], 0.1);
  EXPECT_DOUBLE_EQ(domain[1], 0.9);
}

TEST(SamplingDomainTest, EquiSizeAveragesChunks) {
  std::vector<double> thresholds = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  Rng rng(606);
  auto domain = BuildSamplingDomain(thresholds,
                                    SamplingStrategy::kEquiSize, 3, 0.05,
                                    &rng);
  ASSERT_EQ(domain.size(), 3u);
  EXPECT_DOUBLE_EQ(domain[0], 1.5);
  EXPECT_DOUBLE_EQ(domain[1], 3.5);
  EXPECT_DOUBLE_EQ(domain[2], 5.5);
}

TEST(SamplingDomainTest, EquiSizeFollowsDensity) {
  // 90% of thresholds in [0.49, 0.51]: most chunk means land there.
  std::vector<double> thresholds;
  Rng seed_rng(607);
  for (int i = 0; i < 900; ++i) {
    thresholds.push_back(seed_rng.Uniform(0.49, 0.51));
  }
  for (int i = 0; i < 100; ++i) {
    thresholds.push_back(seed_rng.Uniform(0.0, 1.0));
  }
  std::sort(thresholds.begin(), thresholds.end());
  Rng rng(608);
  auto domain = BuildSamplingDomain(thresholds,
                                    SamplingStrategy::kEquiSize, 20, 0.05,
                                    &rng);
  int near_half = 0;
  for (double v : domain) near_half += (v > 0.45 && v < 0.55) ? 1 : 0;
  EXPECT_GE(near_half, 14);
}

// Invariants common to every strategy, swept over strategy × K.
struct SweepParams {
  SamplingStrategy strategy;
  int k;
};

class SamplingInvariantTest
    : public ::testing::TestWithParam<SweepParams> {};

TEST_P(SamplingInvariantTest, DomainSortedDistinctBoundedSized) {
  const auto& p = GetParam();
  Rng data_rng(609);
  std::vector<double> thresholds;
  for (int i = 0; i < 400; ++i) {
    thresholds.push_back(std::round(data_rng.Normal(5.0, 2.0) * 50.0) /
                         50.0);
  }
  std::sort(thresholds.begin(), thresholds.end());
  Rng rng(610);
  auto domain =
      BuildSamplingDomain(thresholds, p.strategy, p.k, 0.05, &rng);

  EXPECT_FALSE(domain.empty());
  EXPECT_TRUE(std::is_sorted(domain.begin(), domain.end()));
  std::set<double> distinct(domain.begin(), domain.end());
  EXPECT_EQ(distinct.size(), domain.size());

  // Bounded by the ε-extended threshold range.
  double lo = thresholds.front(), hi = thresholds.back();
  double eps = 0.05 * (hi - lo) + 1e-9;
  EXPECT_GE(domain.front(), lo - eps - 1.0);
  EXPECT_LE(domain.back(), hi + eps + 1.0);

  if (p.strategy != SamplingStrategy::kAllThresholds) {
    EXPECT_LE(domain.size(), static_cast<size_t>(p.k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndK, SamplingInvariantTest,
    ::testing::Values(
        SweepParams{SamplingStrategy::kAllThresholds, 0},
        SweepParams{SamplingStrategy::kKQuantile, 5},
        SweepParams{SamplingStrategy::kKQuantile, 50},
        SweepParams{SamplingStrategy::kEquiWidth, 5},
        SweepParams{SamplingStrategy::kEquiWidth, 50},
        SweepParams{SamplingStrategy::kKMeans, 5},
        SweepParams{SamplingStrategy::kKMeans, 50},
        SweepParams{SamplingStrategy::kEquiSize, 5},
        SweepParams{SamplingStrategy::kEquiSize, 50}));

TEST(SamplingStrategyTest, NamesAreDistinct) {
  std::set<std::string> names;
  for (auto s : AllSamplingStrategies()) {
    names.insert(SamplingStrategyName(s));
  }
  EXPECT_EQ(names.size(), 5u);
}

TEST(DstarTest, GeneratedDatasetDrawsFromDomains) {
  Rng rng(611);
  Dataset data = MakeGPrimeDataset(1000, &rng);
  GbdtConfig config;
  config.num_trees = 20;
  config.num_leaves = 8;
  Forest forest = TrainGbdt(data, nullptr, config).forest;
  ThresholdIndex index(forest);
  auto domains = BuildAllDomains(forest, index,
                                 SamplingStrategy::kKQuantile, 16, 0.05,
                                 &rng);
  Dataset dstar = GenerateSyntheticDataset(forest, domains, 500, &rng);
  EXPECT_EQ(dstar.num_rows(), 500u);
  EXPECT_EQ(dstar.num_features(), forest.num_features());
  for (size_t f = 0; f < dstar.num_features(); ++f) {
    std::set<double> allowed(domains[f].begin(), domains[f].end());
    for (double v : dstar.Column(f)) {
      EXPECT_EQ(allowed.count(v), 1u) << "feature " << f;
    }
  }
}

TEST(DstarTest, LabelsAreForestRawPredictions) {
  Rng rng(612);
  Dataset data = MakeGPrimeDataset(800, &rng);
  GbdtConfig config;
  config.num_trees = 15;
  config.num_leaves = 8;
  Forest forest = TrainGbdt(data, nullptr, config).forest;
  ThresholdIndex index(forest);
  auto domains = BuildAllDomains(forest, index,
                                 SamplingStrategy::kEquiSize, 8, 0.05,
                                 &rng);
  Dataset dstar = GenerateSyntheticDataset(forest, domains, 100, &rng);
  for (size_t i = 0; i < dstar.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(dstar.target(i),
                     forest.PredictRaw(dstar.GetRow(i)));
  }
}

TEST(DstarTest, ClassificationLabelsAreProbabilities) {
  Rng rng(613);
  Dataset data(std::vector<std::string>{"x1", "x2"});
  for (int i = 0; i < 800; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    data.AppendRow({a, b}, a + b > 1.0 ? 1.0 : 0.0);
  }
  GbdtConfig config;
  config.objective = Objective::kBinaryClassification;
  config.num_trees = 20;
  config.num_leaves = 4;
  Forest forest = TrainGbdt(data, nullptr, config).forest;
  ThresholdIndex index(forest);
  auto domains = BuildAllDomains(forest, index,
                                 SamplingStrategy::kEquiWidth, 10, 0.05,
                                 &rng);
  Dataset dstar = GenerateSyntheticDataset(forest, domains, 200, &rng);
  for (double y : dstar.targets()) {
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 1.0);
  }
}

TEST(DstarTest, UnusedFeatureGetsSingletonDomain) {
  Tree t = Tree::Stump(0.0, 10);
  t.SplitLeaf(0, 0, 0.5, 1.0, 0.0, 1.0, 5, 5);
  std::vector<Tree> trees;
  trees.push_back(std::move(t));
  Forest forest(std::move(trees), 0.0, Objective::kRegression,
                Aggregation::kSum, 3, {});
  ThresholdIndex index(forest);
  Rng rng(614);
  auto domains = BuildAllDomains(forest, index,
                                 SamplingStrategy::kKQuantile, 8, 0.05,
                                 &rng);
  EXPECT_EQ(domains[1].size(), 1u);
  EXPECT_EQ(domains[2].size(), 1u);
}

}  // namespace
}  // namespace gef
