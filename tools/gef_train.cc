// gef_train — command-line forest trainer.
//
// Trains a GBDT or Random Forest on a CSV (last column = target) and
// writes the model in the native gef text format, ready for gef_explain.
// Together the two tools walk the paper's full third-party scenario from
// the shell:
//
//   gef_train  --data train.csv --out forest.txt --trees 200 --leaves 32
//   gef_explain --model forest.txt --univariate 7 --curves curves.csv
//
// Usage:
//   gef_train --data <csv> --out <model file>
//             [--objective regression|binary] [--algo gbdt|rf]
//             [--trees 100] [--leaves 31] [--lr 0.1]
//             [--min-leaf 20] [--subsample 1.0]
//             [--valid-fraction 0] [--early-stopping 0] [--seed 42]
//             [--store-out <store file> [--store-name model0]]
//             [--surrogate spline_gam|boosted_fanova]
//
// --store-out additionally packs the trained forest into a binary model
// store (src/store/, DESIGN.md §3.17) that gef_serve --store mmaps.
// With --surrogate, the GEF pipeline also runs on the fresh forest and
// the fitted explanation is packed alongside it (requires --store-out),
// so gef_serve boots with the surrogate preloaded — no first-request
// fit.
//
// Exit codes: 0 success, 1 bad usage, 2 data/training failure.

#include <cstdio>

#include "data/csv.h"
#include "data/split.h"
#include "forest/gbdt_trainer.h"
#include "forest/random_forest_trainer.h"
#include "forest/serialization.h"
#include "gef/explainer.h"
#include "gef/explanation_io.h"
#include "store/store_builder.h"
#include "util/shutdown.h"
#include "stats/metrics.h"
#include "util/flags.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace gef {
namespace {

int Run(int argc, const char* const* argv) {
  // SIGINT mid-save must not leave a half-written model behind: every
  // save goes through WriteFileAtomic, whose temp file the handler
  // unlinks.
  InstallShutdownHandler();

  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;

  std::string data_path = flags.GetString("data", "");
  std::string out_path = flags.GetString("out", "");
  std::string store_out = flags.GetString("store-out", "");
  std::string store_name = flags.GetString("store-name", "model0");
  if (data_path.empty() || out_path.empty()) {
    std::fprintf(stderr,
                 "usage: gef_train --data <csv> --out <model file> "
                 "[options]\nsee the header of tools/gef_train.cc\n");
    return 1;
  }

  std::string objective_name = flags.GetString("objective", "regression");
  Objective objective = objective_name == "binary"
                            ? Objective::kBinaryClassification
                            : Objective::kRegression;
  if (objective_name != "binary" && objective_name != "regression") {
    std::fprintf(stderr, "unknown --objective '%s'\n",
                 objective_name.c_str());
    return 1;
  }
  std::string algo = flags.GetString("algo", "gbdt");
  int trees = flags.GetInt("trees", 100);
  int leaves = flags.GetInt("leaves", 31);
  double lr = flags.GetDouble("lr", 0.1);
  int min_leaf = flags.GetInt("min-leaf", 20);
  double subsample = flags.GetDouble("subsample", 1.0);
  double valid_fraction = flags.GetDouble("valid-fraction", 0.0);
  int early_stopping = flags.GetInt("early-stopping", 0);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  std::string surrogate = flags.GetString("surrogate", "");
  GefConfig gef_config;
  gef_config.surrogate_backend = surrogate;
  gef_config.seed = seed;
  if (!surrogate.empty()) {
    if (Status valid = ValidateGefConfig(gef_config); !valid.ok()) {
      std::fprintf(stderr, "invalid --surrogate: %s\n",
                   valid.message().c_str());
      return 1;
    }
    if (store_out.empty()) {
      std::fprintf(stderr,
                   "--surrogate packs the fitted explanation into a "
                   "store; pass --store-out too\n");
      return 1;
    }
  }

  if (!flags.status().ok()) {
    std::fprintf(stderr, "%s\n", flags.status().message().c_str());
    return 1;
  }
  std::vector<std::string> unread = flags.UnreadFlags();
  if (!unread.empty()) {
    std::fprintf(stderr, "unknown flag(s): --%s\n",
                 Join(unread, ", --").c_str());
    return 1;
  }

  auto data = LoadCsv(data_path, /*last_column_is_target=*/true);
  if (!data.ok()) {
    std::fprintf(stderr, "cannot load data: %s\n",
                 data.status().ToString().c_str());
    return 2;
  }
  std::printf("loaded %zu rows x %zu features from %s\n",
              data->num_rows(), data->num_features(), data_path.c_str());

  Forest forest;
  Rng rng(seed);
  if (algo == "rf") {
    RandomForestConfig config;
    config.objective = objective;
    config.num_trees = trees;
    config.num_leaves = leaves;
    config.min_samples_leaf = min_leaf;
    config.seed = seed;
    forest = TrainRandomForest(*data, config);
  } else if (algo == "gbdt") {
    GbdtConfig config;
    config.objective = objective;
    config.num_trees = trees;
    config.num_leaves = leaves;
    config.learning_rate = lr;
    config.min_samples_leaf = min_leaf;
    config.subsample_rows = subsample;
    config.early_stopping_rounds = early_stopping;
    config.seed = seed;
    if (valid_fraction > 0.0) {
      TrainValidSplit split = SplitTrainValid(*data, valid_fraction, &rng);
      GbdtTrainResult result =
          TrainGbdt(split.train, &split.valid, config);
      forest = std::move(result.forest);
      std::printf("trained %zu trees (best iteration %d)\n",
                  forest.num_trees(), result.best_iteration);
    } else {
      if (early_stopping > 0) {
        std::fprintf(stderr,
                     "--early-stopping requires --valid-fraction > 0\n");
        return 1;
      }
      forest = TrainGbdt(*data, nullptr, config).forest;
    }
  } else {
    std::fprintf(stderr, "unknown --algo '%s'\n", algo.c_str());
    return 1;
  }

  // Training-set quality (for the user's sanity, not a test metric).
  if (objective == Objective::kBinaryClassification) {
    std::printf("training accuracy: %.4f\n",
                Accuracy(forest.PredictBatch(*data), data->targets()));
  } else {
    std::printf("training RMSE: %.5f\n",
                Rmse(forest.PredictRawBatch(*data), data->targets()));
  }

  Status status = SaveForest(forest, out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot save model: %s\n",
                 status.ToString().c_str());
    return 2;
  }
  std::printf("wrote %zu-tree forest to %s (hash %s)\n",
              forest.num_trees(), out_path.c_str(),
              HashToHex(forest.ContentHash()).c_str());

  if (!store_out.empty()) {
    store::StoreBuilder builder;
    Status packed = builder.AddForest(store_name, forest);
    if (packed.ok() && !surrogate.empty()) {
      std::unique_ptr<GefExplanation> explanation =
          ExplainForest(forest, gef_config);
      if (explanation == nullptr) {
        std::fprintf(stderr, "surrogate fit failed (%s)\n",
                     surrogate.c_str());
        return 2;
      }
      std::printf("fitted %s surrogate (fidelity RMSE %.5f)\n",
                  surrogate.c_str(), explanation->fidelity_rmse_test);
      packed = builder.AddSurrogate(
          store_name, ExplanationToString(*explanation), surrogate);
    }
    if (packed.ok()) packed = builder.WriteTo(store_out);
    if (!packed.ok()) {
      std::fprintf(stderr, "cannot pack store: %s\n",
                   packed.ToString().c_str());
      return 2;
    }
    std::printf("packed store %s (%zu sections, model %s%s)\n",
                store_out.c_str(), builder.num_sections(),
                store_name.c_str(),
                surrogate.empty() ? "" : " + surrogate");
  }
  return 0;
}

}  // namespace
}  // namespace gef

int main(int argc, char** argv) { return gef::Run(argc, argv); }
