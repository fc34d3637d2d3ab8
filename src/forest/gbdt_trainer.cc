#include "forest/gbdt_trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "forest/loss.h"
#include "obs/obs.h"
#include "util/parallel.h"
#include "util/validate.h"

namespace gef {
namespace {

// Adds `tree`'s output for every row of `data` to `scores`, in parallel.
// A single-tree traversal is cheap, so chunks are coarse.
void AddTreePredictions(const Tree& tree, const Dataset& data,
                        std::vector<double>* scores) {
  ParallelForChunked(0, data.num_rows(), 512,
                     [&](size_t chunk_begin, size_t chunk_end) {
                       std::vector<double> row;
                       for (size_t i = chunk_begin; i < chunk_end; ++i) {
                         data.GetRowInto(i, &row);
                         (*scores)[i] += tree.Predict(row.data());
                       }
                     });
}

// True when every feature value of `data` is finite. Only then does a
// row's bin route it as `x <= threshold` does: a NaN bins to 0, so the
// grower sends it left, while Tree::Predict sends it right.
bool AllFeaturesFinite(const Dataset& data) {
  for (size_t f = 0; f < data.num_features(); ++f) {
    for (double v : data.Column(f)) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

}  // namespace

GbdtTrainResult TrainGbdt(const Dataset& train, const Dataset* valid,
                          const GbdtConfig& config) {
  GEF_OBS_SPAN("forest.gbdt_train");
  GEF_CHECK(train.has_targets());
  GEF_CHECK_GT(train.num_rows(), 0u);
  GEF_CHECK_GT(config.num_trees, 0);
  GEF_CHECK(config.learning_rate > 0.0);
  GEF_CHECK(config.subsample_rows > 0.0 && config.subsample_rows <= 1.0);
  if (config.early_stopping_rounds > 0) {
    GEF_CHECK_MSG(valid != nullptr && valid->has_targets(),
                  "early stopping requires a validation set");
  }

  const Loss& loss = LossFor(config.objective);
  Rng rng(config.seed);

  BinMapper mapper(train, config.max_bins);
  BinnedData binned(train, mapper);
  GrowerConfig grower_config;
  grower_config.num_leaves = config.num_leaves;
  grower_config.min_samples_leaf = config.min_samples_leaf;
  grower_config.lambda_l2 = config.lambda_l2;
  grower_config.min_gain = config.min_gain;
  TreeGrower grower(binned, mapper, grower_config);

  const size_t n = train.num_rows();
  const double init_score = loss.InitScore(train.targets());
  std::vector<double> scores(n, init_score);

  std::vector<double> valid_scores;
  if (valid != nullptr) {
    valid_scores.assign(valid->num_rows(), init_score);
  }

  GbdtTrainResult result;
  std::vector<Tree> trees;
  trees.reserve(static_cast<size_t>(config.num_trees));

  std::vector<double> gradients, hessians;
  std::vector<int> all_rows(n);
  for (size_t i = 0; i < n; ++i) all_rows[i] = static_cast<int>(i);
  // When every row is grown on, the grower's partition already says
  // which leaf each training row falls into, so the score update needs no
  // tree walk.
  const bool update_from_leaves =
      config.subsample_rows == 1.0 && AllFeaturesFinite(train);
  std::vector<int> leaf_of;
  std::vector<int> sampled_rows;

  double best_valid = std::numeric_limits<double>::infinity();
  int best_iter = -1;
  int rounds_since_best = 0;

  for (int round = 0; round < config.num_trees; ++round) {
    loss.ComputeDerivatives(train.targets(), scores, &gradients,
                            &hessians);

    if (config.subsample_rows < 1.0) {
      size_t keep = std::max<size_t>(
          1, static_cast<size_t>(config.subsample_rows *
                                 static_cast<double>(n)));
      sampled_rows.clear();
      for (size_t idx : rng.SampleWithoutReplacement(n, keep)) {
        sampled_rows.push_back(static_cast<int>(idx));
      }
    }
    const std::vector<int>& rows =
        config.subsample_rows < 1.0 ? sampled_rows : all_rows;

    Tree tree;
    {
      GEF_OBS_SPAN("forest.grow_tree");
      tree = grower.Grow(gradients, hessians, rows, &rng,
                         update_from_leaves ? &leaf_of : nullptr);
    }
    tree.ScaleLeaves(config.learning_rate);

    // Update cached scores with the new tree.
    if (update_from_leaves) {
      for (size_t i = 0; i < n; ++i) {
        scores[i] += tree.node(static_cast<size_t>(leaf_of[i])).value;
      }
    } else {
      AddTreePredictions(tree, train, &scores);
    }
    result.train_loss_curve.push_back(
        loss.Evaluate(train.targets(), scores));
    GEF_OBS_METRIC("gbdt.train_loss", round,
                   result.train_loss_curve.back());

    if (valid != nullptr) {
      AddTreePredictions(tree, *valid, &valid_scores);
      double valid_loss = loss.Evaluate(valid->targets(), valid_scores);
      result.valid_loss_curve.push_back(valid_loss);
      GEF_OBS_METRIC("gbdt.valid_loss", round, valid_loss);
      if (valid_loss < best_valid - 1e-12) {
        best_valid = valid_loss;
        best_iter = round;
        rounds_since_best = 0;
      } else {
        ++rounds_since_best;
      }
    }

    trees.push_back(std::move(tree));

    if (config.early_stopping_rounds > 0 &&
        rounds_since_best >= config.early_stopping_rounds) {
      break;
    }
  }

  // Truncate to the best iteration under early stopping.
  if (config.early_stopping_rounds > 0 && best_iter >= 0) {
    trees.resize(static_cast<size_t>(best_iter) + 1);
    result.best_iteration = best_iter;
  }

  result.forest =
      Forest(std::move(trees), init_score, config.objective,
             Aggregation::kSum, train.num_features(), train.feature_names());
  if (ValidateAfterTraining()) {
    Status s = ValidateForest(result.forest);
    GEF_CHECK_MSG(s.ok(), "trained GBDT failed validation: " << s.message());
  }
  return result;
}

GbdtConfig GridSearchGbdt(const Dataset& train, const GbdtGrid& grid,
                          const GbdtConfig& base, int num_folds,
                          Rng* rng) {
  GEF_CHECK_GE(num_folds, 2);
  GEF_CHECK(!grid.num_trees.empty() && !grid.num_leaves.empty() &&
            !grid.learning_rates.empty());
  const Loss& loss = LossFor(base.objective);

  // Pre-compute fold assignments once so all configs see identical folds.
  std::vector<size_t> perm = rng->Permutation(train.num_rows());
  std::vector<std::vector<size_t>> folds(num_folds);
  for (size_t i = 0; i < perm.size(); ++i) {
    folds[i % num_folds].push_back(perm[i]);
  }

  GbdtConfig best = base;
  double best_loss = std::numeric_limits<double>::infinity();
  for (int trees : grid.num_trees) {
    for (int leaves : grid.num_leaves) {
      for (double lr : grid.learning_rates) {
        GbdtConfig candidate = base;
        candidate.num_trees = trees;
        candidate.num_leaves = leaves;
        candidate.learning_rate = lr;
        candidate.early_stopping_rounds = 0;

        double total = 0.0;
        for (int fold = 0; fold < num_folds; ++fold) {
          std::vector<size_t> train_idx;
          for (int other = 0; other < num_folds; ++other) {
            if (other == fold) continue;
            train_idx.insert(train_idx.end(), folds[other].begin(),
                             folds[other].end());
          }
          Dataset fold_train = train.Subset(train_idx);
          Dataset fold_valid = train.Subset(folds[fold]);
          GbdtTrainResult result =
              TrainGbdt(fold_train, nullptr, candidate);
          total += loss.Evaluate(fold_valid.targets(),
                                 result.forest.PredictRawBatch(fold_valid));
        }
        double mean_loss = total / num_folds;
        if (mean_loss < best_loss) {
          best_loss = mean_loss;
          best = candidate;
        }
      }
    }
  }
  return best;
}

}  // namespace gef
