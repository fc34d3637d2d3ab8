// Tests for binning (BinMapper / BinnedData) and the leaf-wise grower.

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "forest/grower.h"
#include "stats/rng.h"

namespace gef {
namespace {

Dataset LinearDataset(size_t n, Rng* rng) {
  Dataset d(std::vector<std::string>{"x", "noise"});
  for (size_t i = 0; i < n; ++i) {
    double x = rng->Uniform();
    d.AppendRow({x, rng->Uniform()}, 3.0 * x);
  }
  return d;
}

TEST(BinMapperTest, FewDistinctValuesGetOneBinEach) {
  Dataset d(std::vector<std::string>{"x"});
  for (double v : {1.0, 2.0, 3.0, 1.0, 2.0}) d.AppendRow({v}, 0.0);
  BinMapper mapper(d, 255);
  EXPECT_EQ(mapper.NumBins(0), 3);
  // Boundaries at midpoints 1.5 and 2.5.
  EXPECT_DOUBLE_EQ(mapper.UpperBoundary(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(mapper.UpperBoundary(0, 1), 2.5);
  EXPECT_EQ(mapper.BinFor(0, 1.0), 0);
  EXPECT_EQ(mapper.BinFor(0, 1.5), 0);  // boundary goes left (<=)
  EXPECT_EQ(mapper.BinFor(0, 1.6), 1);
  EXPECT_EQ(mapper.BinFor(0, 99.0), 2);
}

TEST(BinMapperTest, ManyValuesRespectMaxBins) {
  Rng rng(61);
  Dataset d(std::vector<std::string>{"x"});
  for (int i = 0; i < 5000; ++i) d.AppendRow({rng.Normal()}, 0.0);
  BinMapper mapper(d, 64);
  EXPECT_LE(mapper.NumBins(0), 64);
  EXPECT_GE(mapper.NumBins(0), 32);  // should not collapse
  // Boundaries are strictly increasing.
  const auto& bounds = mapper.boundaries(0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(BinMapperTest, ConstantFeatureHasSingleBin) {
  Dataset d(std::vector<std::string>{"x"});
  for (int i = 0; i < 10; ++i) d.AppendRow({5.0}, 0.0);
  BinMapper mapper(d, 255);
  EXPECT_EQ(mapper.NumBins(0), 1);
}

TEST(BinMapperTest, NanIsLeftOutOfTheBoundaries) {
  // `<` does not order NaN, so binning drops it before sorting: the
  // boundaries are those of the finite values alone, wherever the NaNs
  // sit, and a NaN bins to 0.
  Dataset finite(std::vector<std::string>{"x"});
  Dataset with_nan(std::vector<std::string>{"x"});
  for (int i = 0; i < 40; ++i) {
    const double v = static_cast<double>((i * 7) % 40);
    finite.AppendRow({v}, 0.0);
    if (i % 3 == 0) with_nan.AppendRow({std::nan("")}, 0.0);
    with_nan.AppendRow({v}, 0.0);
  }
  for (int max_bins : {255, 16}) {
    BinMapper expected(finite, max_bins);
    BinMapper mapper(with_nan, max_bins);
    EXPECT_EQ(mapper.boundaries(0), expected.boundaries(0));
    EXPECT_EQ(mapper.BinFor(0, std::nan("")), 0);
  }
}

TEST(BinnedDataTest, BinsMatchMapper) {
  Rng rng(62);
  Dataset d = LinearDataset(200, &rng);
  BinMapper mapper(d, 32);
  BinnedData binned(d, mapper);
  EXPECT_EQ(binned.num_rows(), 200u);
  EXPECT_EQ(binned.num_features(), 2u);
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(binned.Bin(i, 0), mapper.BinFor(0, d.Get(i, 0)));
  }
}

class GrowerFixture : public ::testing::Test {
 protected:
  // Grows a regression tree against targets via g = score - y at score 0,
  // i.e. g = -y, h = 1 (leaf values become shrunken leaf means).
  Tree GrowOn(const Dataset& d, const GrowerConfig& config) {
    BinMapper mapper(d, 255);
    BinnedData binned(d, mapper);
    TreeGrower grower(binned, mapper, config);
    std::vector<double> g(d.num_rows()), h(d.num_rows(), 1.0);
    for (size_t i = 0; i < d.num_rows(); ++i) g[i] = -d.target(i);
    std::vector<int> rows(d.num_rows());
    for (size_t i = 0; i < d.num_rows(); ++i) rows[i] = static_cast<int>(i);
    Rng rng(63);
    return grower.Grow(g, h, rows, &rng);
  }
};

TEST_F(GrowerFixture, SplitsOnTheInformativeFeature) {
  Rng rng(64);
  Dataset d = LinearDataset(500, &rng);
  GrowerConfig config;
  config.num_leaves = 2;
  config.lambda_l2 = 0.0;
  config.min_samples_leaf = 10;
  Tree tree = GrowOn(d, config);
  ASSERT_EQ(tree.num_leaves(), 2u);
  EXPECT_EQ(tree.node(0).feature, 0);  // x, not noise
  EXPECT_GT(tree.node(0).gain, 0.0);
}

TEST_F(GrowerFixture, RespectsNumLeaves) {
  Rng rng(65);
  Dataset d = LinearDataset(1000, &rng);
  GrowerConfig config;
  config.num_leaves = 7;
  config.min_samples_leaf = 5;
  Tree tree = GrowOn(d, config);
  EXPECT_LE(tree.num_leaves(), 7u);
  EXPECT_GE(tree.num_leaves(), 2u);
  EXPECT_TRUE(tree.IsWellFormed());
}

TEST_F(GrowerFixture, RespectsMinSamplesLeaf) {
  Rng rng(66);
  Dataset d = LinearDataset(100, &rng);
  GrowerConfig config;
  config.num_leaves = 32;
  config.min_samples_leaf = 20;
  Tree tree = GrowOn(d, config);
  for (const TreeNode& node : tree.nodes()) {
    if (node.is_leaf()) {
      EXPECT_GE(node.count, 20);
    }
  }
}

TEST_F(GrowerFixture, LeafValuesAreLeafMeansWithoutRegularization) {
  // Step function: y = 0 for x <= 0.5, y = 10 otherwise.
  Dataset d(std::vector<std::string>{"x"});
  Rng rng(67);
  for (int i = 0; i < 400; ++i) {
    double x = rng.Uniform();
    d.AppendRow({x}, x <= 0.5 ? 0.0 : 10.0);
  }
  GrowerConfig config;
  config.num_leaves = 2;
  config.lambda_l2 = 0.0;
  config.min_samples_leaf = 10;
  Tree tree = GrowOn(d, config);
  ASSERT_EQ(tree.num_leaves(), 2u);
  EXPECT_NEAR(tree.node(0).threshold, 0.5, 0.05);
  EXPECT_NEAR(tree.Predict({0.1}), 0.0, 1e-9);
  EXPECT_NEAR(tree.Predict({0.9}), 10.0, 1e-9);
}

TEST_F(GrowerFixture, NoSplitOnPureTargets) {
  Dataset d(std::vector<std::string>{"x"});
  Rng rng(68);
  for (int i = 0; i < 100; ++i) d.AppendRow({rng.Uniform()}, 5.0);
  GrowerConfig config;
  config.num_leaves = 8;
  config.lambda_l2 = 0.0;
  Tree tree = GrowOn(d, config);
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_NEAR(tree.Predict({0.3}), 5.0, 1e-9);
}

TEST_F(GrowerFixture, GainDecreasesDownTheTree) {
  Rng rng(69);
  Dataset d(std::vector<std::string>{"x"});
  for (int i = 0; i < 2000; ++i) {
    double x = rng.Uniform();
    d.AppendRow({x}, std::sin(6.0 * x));
  }
  GrowerConfig config;
  config.num_leaves = 8;
  config.min_samples_leaf = 10;
  Tree tree = GrowOn(d, config);
  // The root's gain is the globally best first split; leaf-wise growth
  // guarantees every later split had gain <= earlier best splits at the
  // moment of expansion, and in particular <= root gain.
  double root_gain = tree.node(0).gain;
  for (const TreeNode& node : tree.nodes()) {
    if (!node.is_leaf()) {
      EXPECT_LE(node.gain, root_gain + 1e-9);
    }
  }
}

TEST_F(GrowerFixture, BootstrapRowsWithDuplicatesWork) {
  Rng rng(70);
  Dataset d = LinearDataset(100, &rng);
  BinMapper mapper(d, 255);
  BinnedData binned(d, mapper);
  GrowerConfig config;
  config.num_leaves = 4;
  config.min_samples_leaf = 5;
  TreeGrower grower(binned, mapper, config);
  std::vector<double> g(100), h(100, 1.0);
  for (size_t i = 0; i < 100; ++i) g[i] = -d.target(i);
  // Bootstrap: sample rows with replacement.
  std::vector<int> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(static_cast<int>(rng.UniformInt(100)));
  }
  Tree tree = grower.Grow(g, h, rows, &rng);
  EXPECT_TRUE(tree.IsWellFormed());
  EXPECT_GE(tree.num_leaves(), 1u);
}

TEST_F(GrowerFixture, MinGainBlocksMarginalSplits) {
  // Weak signal: with a huge min_gain the tree must stay a stump.
  Rng rng(72);
  Dataset d(std::vector<std::string>{"x"});
  for (int i = 0; i < 300; ++i) {
    d.AppendRow({rng.Uniform()}, 0.01 * rng.Uniform());
  }
  GrowerConfig config;
  config.num_leaves = 8;
  config.min_gain = 1e9;
  Tree tree = GrowOn(d, config);
  EXPECT_EQ(tree.num_leaves(), 1u);
}

TEST_F(GrowerFixture, LambdaL2ShrinksLeafValues) {
  Dataset d(std::vector<std::string>{"x"});
  Rng rng(73);
  for (int i = 0; i < 200; ++i) {
    double x = rng.Uniform();
    d.AppendRow({x}, x <= 0.5 ? -1.0 : 1.0);
  }
  GrowerConfig plain;
  plain.num_leaves = 2;
  plain.lambda_l2 = 0.0;
  plain.min_samples_leaf = 10;
  GrowerConfig shrunk = plain;
  shrunk.lambda_l2 = 100.0;
  Tree tree_plain = GrowOn(d, plain);
  Tree tree_shrunk = GrowOn(d, shrunk);
  EXPECT_LT(std::fabs(tree_shrunk.Predict({0.9})),
            std::fabs(tree_plain.Predict({0.9})));
  EXPECT_GT(std::fabs(tree_plain.Predict({0.9})), 0.9);
}

TEST_F(GrowerFixture, ConstantFeatureNeverSplit) {
  Rng rng(74);
  Dataset d(std::vector<std::string>{"constant", "x"});
  for (int i = 0; i < 300; ++i) {
    double x = rng.Uniform();
    d.AppendRow({7.0, x}, 2.0 * x);
  }
  GrowerConfig config;
  config.num_leaves = 8;
  config.min_samples_leaf = 10;
  Tree tree = GrowOn(d, config);
  for (const TreeNode& node : tree.nodes()) {
    if (!node.is_leaf()) {
      EXPECT_EQ(node.feature, 1);
    }
  }
}

TEST_F(GrowerFixture, FeatureFractionRestrictsFeatures) {
  // With feature_fraction ~ 1/2 and 2 features, some trees must use the
  // noise feature only — giving single-leaf trees when noise is useless.
  Rng rng(71);
  Dataset d = LinearDataset(300, &rng);
  BinMapper mapper(d, 255);
  BinnedData binned(d, mapper);
  GrowerConfig config;
  config.num_leaves = 4;
  config.feature_fraction = 0.5;
  config.min_samples_leaf = 10;
  TreeGrower grower(binned, mapper, config);
  std::vector<double> g(300), h(300, 1.0);
  for (size_t i = 0; i < 300; ++i) g[i] = -d.target(i);
  std::vector<int> rows(300);
  for (int i = 0; i < 300; ++i) rows[i] = i;

  int used_noise_only = 0;
  for (int t = 0; t < 20; ++t) {
    Tree tree = grower.Grow(g, h, rows, &rng);
    bool uses_x = false;
    for (const TreeNode& node : tree.nodes()) {
      if (!node.is_leaf() && node.feature == 0) uses_x = true;
    }
    if (!uses_x) ++used_noise_only;
  }
  EXPECT_GT(used_noise_only, 0);  // some trees were denied feature 0
}

TEST_F(GrowerFixture, LeafOfMatchesTreeRouting) {
  // Grow reports each row's leaf from its partition by bin; that must be
  // the leaf Tree::LeafIndex walks the row's values to, since for finite
  // values bin <= b is x <= UpperBoundary(b).
  Rng rng(75);
  Dataset d = LinearDataset(500, &rng);
  BinMapper mapper(d, 32);  // coarse bins: many rows share each bin
  BinnedData binned(d, mapper);
  GrowerConfig config;
  config.num_leaves = 12;
  config.min_samples_leaf = 5;
  TreeGrower grower(binned, mapper, config);
  std::vector<double> g(500), h(500, 1.0);
  for (size_t i = 0; i < 500; ++i) g[i] = -d.target(i);
  std::vector<int> rows(500);
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<int> leaf_of;
  Tree tree = grower.Grow(g, h, rows, &rng, &leaf_of);
  ASSERT_GT(tree.num_leaves(), 2u);
  ASSERT_EQ(leaf_of.size(), 500u);
  std::vector<double> x;
  for (size_t i = 0; i < 500; ++i) {
    d.GetRowInto(i, &x);
    EXPECT_EQ(leaf_of[i], tree.LeafIndex(x)) << "row " << i;
  }
}

TEST_F(GrowerFixture, ReusedGrowerMatchesFreshOne) {
  // A grower keeps its row buffers between Grow calls; a tree grown after
  // a larger one must equal the tree a fresh grower grows.
  Rng rng(76);
  Dataset d = LinearDataset(400, &rng);
  BinMapper mapper(d, 255);
  BinnedData binned(d, mapper);
  GrowerConfig config;
  config.num_leaves = 8;
  config.min_samples_leaf = 5;
  std::vector<double> g(400), h(400, 1.0);
  for (size_t i = 0; i < 400; ++i) g[i] = -d.target(i);
  std::vector<int> all_rows(400);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<int> odd_rows;
  for (int i = 1; i < 400; i += 2) odd_rows.push_back(i);

  TreeGrower reused(binned, mapper, config);
  reused.Grow(g, h, all_rows, &rng);
  Tree second = reused.Grow(g, h, odd_rows, &rng);
  TreeGrower fresh(binned, mapper, config);
  Tree expected = fresh.Grow(g, h, odd_rows, &rng);
  ASSERT_EQ(second.num_nodes(), expected.num_nodes());
  for (size_t i = 0; i < expected.num_nodes(); ++i) {
    EXPECT_EQ(second.node(i).feature, expected.node(i).feature);
    EXPECT_EQ(second.node(i).threshold, expected.node(i).threshold);
    EXPECT_EQ(second.node(i).gain, expected.node(i).gain);
    EXPECT_EQ(second.node(i).value, expected.node(i).value);
    EXPECT_EQ(second.node(i).count, expected.node(i).count);
  }
}

}  // namespace
}  // namespace gef
