// gef_explain — command-line GEF explainer.
//
// Takes a forest model file (native gef format or a LightGBM text dump),
// runs the full data-free GEF pipeline, and writes a summary report plus
// optional CSV spline curves and a local explanation of one instance.
//
// Usage:
//   gef_explain --model forest.txt [--format gef|lightgbm]
//               [--univariate 5] [--bivariate 0]
//               [--sampling all-thresholds|k-quantile|equi-width|
//                           k-means|equi-size]
//               [--k 64] [--samples 10000]
//               [--interaction pair-gain|count-path|gain-path|h-stat]
//               [--surrogate spline_gam|boosted_fanova]
//               [--curves curves.csv] [--points 41]
//               [--explain "0.5,0.3,0.9,..."] [--seed 7]
//               [--save explanation.txt] [--load explanation.txt]
//               [--store-out store.gefs [--store-name model0]]
//               (pack forest + fitted surrogate into a binary model
//                store for gef_serve --store; DESIGN.md §3.17)
//               [--summary]   (print the forest model card and exit)
//               [--probe data.csv]  (evaluate fidelity on a CSV probe;
//                                    last column = target, used only for
//                                    AUC/accuracy context on classifiers)
//
// --save writes the fitted explanation (GAM + pipeline metadata) so
// later runs can skip the pipeline with --load and only re-run the
// local-explanation / export steps.
//
// Exit codes: 0 success, 1 bad usage, 2 model/pipeline failure.

#include <algorithm>
#include <cstdio>
#include <string>

#include "forest/lightgbm_import.h"
#include "forest/serialization.h"
#include "forest/summary.h"
#include "data/csv.h"
#include "gef/evaluation.h"
#include "gef/explainer.h"
#include "gef/explanation_io.h"
#include "gef/local_explanation.h"
#include "gef/report.h"
#include "store/store_builder.h"
#include "util/shutdown.h"
#include "util/flags.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace gef {
namespace {

bool ParseSampling(const std::string& name, SamplingStrategy* out) {
  for (SamplingStrategy strategy : AllSamplingStrategies()) {
    std::string canonical = SamplingStrategyName(strategy);
    for (char& c : canonical) c = std::tolower(c);
    if (name == canonical) {
      *out = strategy;
      return true;
    }
  }
  return false;
}

bool ParseInteraction(const std::string& name, InteractionStrategy* out) {
  for (InteractionStrategy strategy : AllInteractionStrategies()) {
    std::string canonical = InteractionStrategyName(strategy);
    for (char& c : canonical) c = std::tolower(c);
    if (name == canonical) {
      *out = strategy;
      return true;
    }
  }
  return false;
}

int Run(int argc, const char* const* argv) {
  // SIGINT mid-save must not leave a half-written explanation behind:
  // every save goes through WriteFileAtomic, whose temp file the handler
  // unlinks.
  InstallShutdownHandler();

  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;

  std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) {
    std::fprintf(stderr,
                 "usage: gef_explain --model <forest file> [options]\n"
                 "see the header of tools/gef_explain.cc for options\n");
    return 1;
  }
  std::string format = flags.GetString("format", "gef");

  StatusOr<Forest> forest = format == "lightgbm"
                                ? LoadLightGbmModel(model_path)
                                : LoadForest(model_path);
  if (!forest.ok()) {
    std::fprintf(stderr, "cannot load model: %s\n",
                 forest.status().ToString().c_str());
    return 2;
  }
  std::printf("model hash: %s\n",
              HashToHex(forest->ContentHash()).c_str());

  GefConfig config;
  config.num_univariate = flags.GetInt("univariate", 5);
  config.num_bivariate = flags.GetInt("bivariate", 0);
  config.k = flags.GetInt("k", 64);
  // A negative count reads as 0, which ValidateGefConfig rejects,
  // instead of wrapping to a size_t no allocation can satisfy.
  config.num_samples =
      static_cast<size_t>(std::max(0, flags.GetInt("samples", 10000)));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  std::string sampling = flags.GetString("sampling", "equi-size");
  if (!ParseSampling(sampling, &config.sampling)) {
    std::fprintf(stderr, "unknown --sampling '%s'\n", sampling.c_str());
    return 1;
  }
  std::string interaction = flags.GetString("interaction", "gain-path");
  if (!ParseInteraction(interaction, &config.interaction)) {
    std::fprintf(stderr, "unknown --interaction '%s'\n",
                 interaction.c_str());
    return 1;
  }
  config.surrogate_backend =
      flags.GetString("surrogate", config.surrogate_backend);
  if (Status valid = ValidateGefConfig(config); !valid.ok()) {
    std::fprintf(stderr, "invalid pipeline flags: %s\n",
                 valid.message().c_str());
    return 1;
  }

  std::string curves_path = flags.GetString("curves", "");
  int points = flags.GetInt("points", 41);
  std::string instance_raw = flags.GetString("explain", "");
  std::string save_path = flags.GetString("save", "");
  std::string load_path = flags.GetString("load", "");
  std::string store_out = flags.GetString("store-out", "");
  std::string store_name = flags.GetString("store-name", "model0");
  bool summary_only = flags.GetBool("summary", false);
  std::string probe_path = flags.GetString("probe", "");

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

  if (summary_only) {
    std::printf("%s",
                FormatForestSummary(SummarizeForest(*forest),
                                    forest->feature_names())
                    .c_str());
    return 0;
  }

  std::unique_ptr<GefExplanation> explanation;
  if (!load_path.empty()) {
    auto loaded = LoadExplanation(load_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load explanation: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    explanation = std::move(loaded).value();
    std::printf("loaded explanation from %s (pipeline skipped)\n",
                load_path.c_str());
  } else {
    explanation = ExplainForest(*forest, config);
    if (explanation == nullptr) {
      std::fprintf(stderr, "surrogate fit failed (%s)\n",
                   config.surrogate_backend.c_str());
      return 2;
    }
  }

  if (!save_path.empty()) {
    Status status = SaveExplanation(*explanation, save_path);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot save explanation: %s\n",
                   status.ToString().c_str());
      return 2;
    }
    std::printf("saved explanation to %s (%s hash %s)\n",
                save_path.c_str(),
                explanation->surrogate->backend_name().c_str(),
                HashToHex(explanation->surrogate->ContentHash()).c_str());
  }

  if (!store_out.empty()) {
    store::StoreBuilder builder;
    Status packed = builder.AddForest(store_name, *forest);
    if (packed.ok()) {
      packed = builder.AddSurrogate(store_name,
                                    ExplanationToString(*explanation),
                                    explanation->surrogate->backend_name());
    }
    if (packed.ok()) packed = builder.WriteTo(store_out);
    if (!packed.ok()) {
      std::fprintf(stderr, "cannot pack store: %s\n",
                   packed.ToString().c_str());
      return 2;
    }
    std::printf("packed store %s (%zu sections, model %s + surrogate)\n",
                store_out.c_str(), builder.num_sections(),
                store_name.c_str());
  }

  std::printf("%s", DescribeExplanation(*explanation, *forest).c_str());

  if (!probe_path.empty()) {
    auto probe = LoadCsv(probe_path, /*last_column_is_target=*/true);
    if (!probe.ok()) {
      std::fprintf(stderr, "cannot load probe: %s\n",
                   probe.status().ToString().c_str());
      return 2;
    }
    if (probe->num_features() != forest->num_features()) {
      std::fprintf(stderr,
                   "probe has %zu features, the forest expects %zu\n",
                   probe->num_features(), forest->num_features());
      return 1;
    }
    FidelityReport report =
        EvaluateFidelity(*explanation, *forest, *probe);
    std::printf("\nFidelity on %s (%zu rows): RMSE %.5f, MAE %.5f, "
                "R² %.5f\n",
                probe_path.c_str(), report.num_rows, report.rmse,
                report.mae, report.r2);
  }

  if (!curves_path.empty()) {
    Status status =
        ExportCurvesCsv(*explanation, *forest, curves_path, points);
    if (!status.ok()) {
      std::fprintf(stderr, "curve export failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
    std::printf("\nwrote effect curves to %s\n", curves_path.c_str());
  }

  if (!instance_raw.empty()) {
    std::vector<double> instance;
    for (const std::string& field : Split(instance_raw, ',')) {
      double value = 0.0;
      if (!ParseDouble(field, &value)) {
        std::fprintf(stderr, "bad --explain value '%s'\n", field.c_str());
        return 1;
      }
      instance.push_back(value);
    }
    if (instance.size() != forest->num_features()) {
      std::fprintf(stderr,
                   "--explain needs %zu comma-separated values, got %zu\n",
                   forest->num_features(), instance.size());
      return 1;
    }
    LocalExplanation local =
        ExplainInstance(*explanation, *forest, instance);
    std::printf("\nLocal explanation:\n%s",
                FormatLocalExplanation(local).c_str());
  }
  return 0;
}

}  // namespace
}  // namespace gef

int main(int argc, char** argv) { return gef::Run(argc, argv); }
