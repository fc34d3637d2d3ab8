// Tests for GBDT training: losses, boosting behaviour, early stopping,
// the cross-validated grid search, and accuracy on the paper's g'.

#include <cmath>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "forest/gbdt_trainer.h"
#include "forest/loss.h"
#include "stats/metrics.h"

namespace gef {
namespace {

TEST(LossTest, SquaredLossDerivatives) {
  SquaredLoss loss;
  std::vector<double> g, h;
  loss.ComputeDerivatives({1.0, 2.0}, {3.0, 1.0}, &g, &h);
  EXPECT_DOUBLE_EQ(g[0], 2.0);   // score - target
  EXPECT_DOUBLE_EQ(g[1], -1.0);
  EXPECT_DOUBLE_EQ(h[0], 1.0);
  EXPECT_DOUBLE_EQ(loss.InitScore({2.0, 4.0}), 3.0);
  EXPECT_DOUBLE_EQ(loss.Evaluate({0.0}, {2.0}), 2.0);  // 0.5 * 2^2
}

TEST(LossTest, LogisticLossDerivatives) {
  LogisticLoss loss;
  std::vector<double> g, h;
  loss.ComputeDerivatives({1.0, 0.0}, {0.0, 0.0}, &g, &h);
  EXPECT_DOUBLE_EQ(g[0], -0.5);  // sigmoid(0) - 1
  EXPECT_DOUBLE_EQ(g[1], 0.5);
  EXPECT_DOUBLE_EQ(h[0], 0.25);
  // Init score is the empirical log-odds.
  EXPECT_NEAR(loss.InitScore({1, 1, 1, 0}),
              std::log(0.75 / 0.25), 1e-9);
}

TEST(GbdtTest, TrainLossMonotonicallyDecreases) {
  Rng rng(81);
  Dataset train = MakeGPrimeDataset(1500, &rng);
  GbdtConfig config;
  config.num_trees = 40;
  config.num_leaves = 8;
  config.learning_rate = 0.2;
  auto result = TrainGbdt(train, nullptr, config);
  ASSERT_EQ(result.train_loss_curve.size(), 40u);
  for (size_t i = 1; i < result.train_loss_curve.size(); ++i) {
    EXPECT_LE(result.train_loss_curve[i],
              result.train_loss_curve[i - 1] + 1e-9);
  }
}

TEST(GbdtTest, FitsGPrimeWell) {
  Rng rng(82);
  Dataset data = MakeGPrimeDataset(3000, &rng);
  auto split = SplitTrainTest(data, 0.2, &rng);
  GbdtConfig config;
  config.num_trees = 150;
  config.num_leaves = 16;
  config.learning_rate = 0.1;
  config.min_samples_leaf = 10;
  auto result = TrainGbdt(split.train, nullptr, config);
  double r2 = RSquared(result.forest.PredictRawBatch(split.test),
                       split.test.targets());
  EXPECT_GT(r2, 0.9);
}

TEST(GbdtTest, EarlyStoppingTruncatesForest) {
  Rng rng(83);
  // Tiny noisy dataset: overfits quickly, early stopping must kick in.
  Dataset data = MakeGPrimeDataset(300, &rng, /*noise_sigma=*/0.5);
  auto split = SplitTrainValid(data, 0.3, &rng);
  GbdtConfig config;
  config.num_trees = 400;
  config.num_leaves = 32;
  config.learning_rate = 0.3;
  config.min_samples_leaf = 2;
  config.early_stopping_rounds = 10;
  auto result = TrainGbdt(split.train, &split.valid, config);
  EXPECT_LT(result.forest.num_trees(), 400u);
  EXPECT_GE(result.best_iteration, 0);
  EXPECT_EQ(result.forest.num_trees(),
            static_cast<size_t>(result.best_iteration) + 1);
}

TEST(GbdtDeathTest, EarlyStoppingWithoutValidationAborts) {
  Rng rng(84);
  Dataset data = MakeGPrimeDataset(100, &rng);
  GbdtConfig config;
  config.early_stopping_rounds = 5;
  EXPECT_DEATH(TrainGbdt(data, nullptr, config), "validation");
}

TEST(GbdtTest, ClassificationLearnsSeparableProblem) {
  Rng rng(85);
  Dataset data(std::vector<std::string>{"x1", "x2"});
  for (int i = 0; i < 2000; ++i) {
    double x1 = rng.Uniform();
    double x2 = rng.Uniform();
    double label = (x1 + x2 > 1.0) ? 1.0 : 0.0;
    data.AppendRow({x1, x2}, label);
  }
  auto split = SplitTrainTest(data, 0.25, &rng);
  GbdtConfig config;
  config.objective = Objective::kBinaryClassification;
  config.num_trees = 60;
  config.num_leaves = 8;
  config.learning_rate = 0.2;
  auto result = TrainGbdt(split.train, nullptr, config);
  EXPECT_EQ(result.forest.objective(),
            Objective::kBinaryClassification);
  double acc = Accuracy(result.forest.PredictBatch(split.test),
                        split.test.targets());
  EXPECT_GT(acc, 0.93);
  // Predictions are probabilities.
  for (double p : result.forest.PredictBatch(split.test)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(GbdtTest, RowSubsamplingStillLearns) {
  Rng rng(86);
  Dataset data = MakeGPrimeDataset(2000, &rng);
  auto split = SplitTrainTest(data, 0.2, &rng);
  GbdtConfig config;
  config.num_trees = 80;
  config.num_leaves = 8;
  config.learning_rate = 0.15;
  config.subsample_rows = 0.5;
  auto result = TrainGbdt(split.train, nullptr, config);
  double r2 = RSquared(result.forest.PredictRawBatch(split.test),
                       split.test.targets());
  EXPECT_GT(r2, 0.8);
}

TEST(GbdtTest, DeterministicGivenSeed) {
  Rng rng(87);
  Dataset data = MakeGPrimeDataset(500, &rng);
  GbdtConfig config;
  config.num_trees = 10;
  config.num_leaves = 4;
  config.subsample_rows = 0.7;
  auto a = TrainGbdt(data, nullptr, config);
  auto b = TrainGbdt(data, nullptr, config);
  // Byte-identical models, not merely close predictions.
  EXPECT_EQ(a.forest.ContentHash(), b.forest.ContentHash());
}

// The training loss is computed from the scores the trainer updates after
// each tree; it must equal the loss of the forest's own tree walk, bit for
// bit, whether the update reads the grower's leaves (every row sampled,
// every value finite) or walks each tree (subsampled rows, or a NaN).
TEST(GbdtTest, TrainingScoresMatchForestWalk) {
  const SquaredLoss loss;
  auto check = [&loss](const Dataset& data, const GbdtConfig& config) {
    GbdtTrainResult result = TrainGbdt(data, nullptr, config);
    std::vector<double> walked(data.num_rows());
    std::vector<double> row;
    for (size_t i = 0; i < data.num_rows(); ++i) {
      data.GetRowInto(i, &row);
      walked[i] = result.forest.PredictRaw(row.data());
    }
    EXPECT_EQ(result.train_loss_curve.back(),
              loss.Evaluate(data.targets(), walked));
  };

  Rng rng(92);
  const Dataset finite = MakeGPrimeDataset(600, &rng);
  GbdtConfig config;
  config.num_trees = 15;
  config.num_leaves = 16;
  config.min_samples_leaf = 5;
  check(finite, config);
  GbdtConfig subsampled = config;
  subsampled.subsample_rows = 0.6;
  check(finite, subsampled);

  // A NaN bins to 0, so the grower puts it left of every split, while the
  // walk sends it right (NaN <= t is false). Binning leaves NaN out of the
  // boundaries, so the trees still split between the finite values.
  Dataset with_nan(std::vector<std::string>{"x"});
  for (int i = 0; i < 15; ++i) {
    with_nan.AppendRow({static_cast<double>(i)}, i >= 8 ? 1.0 : 0.0);
  }
  with_nan.AppendRow({std::nan("")}, 1.0);
  GbdtConfig tiny;
  tiny.num_trees = 3;
  tiny.num_leaves = 2;
  tiny.min_samples_leaf = 1;
  tiny.learning_rate = 0.5;
  check(with_nan, tiny);
}

TEST(GbdtTest, GainsAreRecordedOnInternalNodes) {
  Rng rng(88);
  Dataset data = MakeGPrimeDataset(800, &rng);
  GbdtConfig config;
  config.num_trees = 5;
  config.num_leaves = 8;
  auto result = TrainGbdt(data, nullptr, config);
  int internal = 0;
  for (const Tree& tree : result.forest.trees()) {
    for (const TreeNode& node : tree.nodes()) {
      if (!node.is_leaf()) {
        ++internal;
        EXPECT_GT(node.gain, 0.0);
      }
    }
  }
  EXPECT_GT(internal, 0);
}

TEST(GbdtTest, GridSearchPicksReasonableConfig) {
  Rng rng(89);
  Dataset data = MakeGPrimeDataset(600, &rng);
  GbdtGrid grid;
  grid.num_trees = {5, 40};
  grid.num_leaves = {4};
  grid.learning_rates = {0.3};
  GbdtConfig base;
  base.min_samples_leaf = 5;
  Rng cv_rng(90);
  GbdtConfig best = GridSearchGbdt(data, grid, base, 3, &cv_rng);
  // 40 deeper-boosted trees beat 5 on this smooth target.
  EXPECT_EQ(best.num_trees, 40);
}

TEST(GbdtTest, ValidationCurveRecordedWhenValidProvided) {
  Rng rng(91);
  Dataset data = MakeGPrimeDataset(600, &rng);
  auto split = SplitTrainValid(data, 0.25, &rng);
  GbdtConfig config;
  config.num_trees = 20;
  config.num_leaves = 4;
  auto result = TrainGbdt(split.train, &split.valid, config);
  EXPECT_EQ(result.valid_loss_curve.size(), 20u);
  EXPECT_LT(result.valid_loss_curve.back(),
            result.valid_loss_curve.front());
}

}  // namespace
}  // namespace gef
