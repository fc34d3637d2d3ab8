// bench_report: runs the standard synthetic + census workloads through
// the full GEF pipeline under the observability layer (src/obs) and
// emits a schema-stable BENCH_PRn.json — per-stage wall-times, D*
// labeling throughput, surrogate fidelity (R² / RMSE) and peak RSS — so
// every later PR has a perf trajectory to regress against.
//
// Usage:
//   bench_report [--out BENCH_PR10.json] [--smoke] [--workload all]
//                [--serving loadgen-on.json,loadgen-off.json]
//   bench_report --validate BENCH_PR10.json [--baseline BENCH_PR9.json]
//
// `--serving` (comma-separated list of files) merges the serving
// workloads emitted by gef_loadgen --out
// into the report, so one BENCH_PRn.json carries both the pipeline and
// the serving trajectory. A workload with a "serving" object is
// validated against the serving keys (qps, latency quantiles, errors)
// instead of the pipeline stage keys, and the baseline diff prints
// qps/p99 deltas for it.
//
// With GEF_TRACE=<path> set, the per-stage JSONL spans land there as a
// side artifact; without it, tracing runs in-memory only (aggregates
// still feed the report).
//
// Each pipeline workload also carries a "store" object comparing
// registry cold-start from the binary model store (src/store, mmap +
// compiled-array adoption) against re-parsing the text model: load
// wall-times, the speedup ratio, and a bitwise predict-parity flag.
//
// Each pipeline workload also carries a "surrogates" object: the
// two-backend fidelity head-to-head (DESIGN.md §3.19). The
// boosted_fanova backend is fitted on the *same* sampling artifacts
// (domains + D*) the spline pipeline consumed, so the r2/rmse/fit_s
// entries isolate the surrogate family from the sampling noise. The
// baseline diff drift-gates both backends once the baseline carries
// the object.
//
// `--validate` re-parses an emitted report with the repo's strict JSON
// parser (util/json.h) and checks every schema-required field, which is
// what the CI bench-report job gates on. Adding `--baseline` diffs the
// validated report against a prior one: per-stage wall-time deltas are
// printed as a markdown table (CI appends it to the job summary) and any
// fidelity drift beyond kFidelityDriftTol FAILS the run — a perf PR must
// not buy speed with accuracy.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "data/census.h"
#include "data/synthetic.h"
#include "forest/gbdt_trainer.h"
#include "forest/serialization.h"
#include "store/store_builder.h"
#include "store/store_reader.h"
#include "gef/evaluation.h"
#include "gef/explainer.h"
#include "explain/pdp.h"
#include "explain/treeshap.h"
#include "obs/obs.h"
#include "obs/rss.h"
#include "serve/model_registry.h"
#include "util/file_io.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/parallel.h"

namespace gef {
namespace {

// ---------------------------------------------------------------------
// Report schema. Bump kSchema when a field changes meaning; add-only
// changes keep the version.

constexpr const char* kSchema = "gef-bench-v1";
constexpr const char* kPrLabel = "PR10";

// Surrogate backends every pipeline workload must report head-to-head
// (see surrogate/registry.h for the stable names).
const std::vector<const char*> kHeadToHeadBackends = {"spline_gam",
                                                     "boosted_fanova"};

// Numeric keys a serving workload's "serving" object must carry (see
// tools/gef_loadgen.cc, which emits them).
const std::vector<const char*> kServingNumberKeys = {
    "connections",     "duration_s",      "requests",
    "errors",          "qps",             "latency_p50_ms",
    "latency_p90_ms",  "latency_p99_ms",
};

// Stage keys every workload must report (seconds). Keep in sync with
// ValidateReport and DESIGN.md §3.12.
const std::vector<std::pair<const char*, const char*>> kStageSpans = {
    {"forest_train", "forest.gbdt_train"},
    {"feature_selection", "gef.feature_selection"},
    {"sampling_domains", "gef.sampling_domains"},
    {"dstar_draw", "gef.dstar_draw"},
    {"dstar_label", "gef.dstar_label"},
    {"interaction_selection", "gef.interaction_selection"},
    {"gam_fit", "gam.fit"},
    {"baseline_treeshap", "explain.treeshap"},
    {"baseline_pdp", "explain.pdp_1d"},
};

// One backend's entry in the fidelity head-to-head.
struct SurrogateStat {
  double fit_s = 0.0;
  double r2 = 0.0;
  double rmse = 0.0;
};

struct WorkloadResult {
  std::string name;
  size_t train_rows = 0;
  int num_trees = 0;
  std::map<std::string, double> stages_s;
  double dstar_rows_per_s = 0.0;
  double fidelity_r2 = 0.0;
  double fidelity_rmse = 0.0;
  // Backend name → head-to-head fit on the shared sampling artifacts.
  std::map<std::string, SurrogateStat> surrogates;
  uint64_t peak_rss_bytes = 0;
  // Store stage: registry cold-start comparison (DESIGN.md §3.17).
  double store_text_load_s = 0.0;
  double store_mmap_load_s = 0.0;
  double store_speedup = 0.0;
  bool store_bit_identical = false;
};

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return std::string(buf);
}

// Re-serializes a parsed Json (used to carry gef_loadgen's serving
// workloads into the merged report verbatim).
void SerializeJson(const Json& value, int indent, std::string* out) {
  const std::string pad(static_cast<size_t>(indent), ' ');
  switch (value.type) {
    case Json::Type::kNull:
      *out += "null";
      break;
    case Json::Type::kBool:
      *out += value.boolean ? "true" : "false";
      break;
    case Json::Type::kNumber:
      *out += FormatDouble(value.number);
      break;
    case Json::Type::kString:
      *out += "\"" + JsonEscapeString(value.str) + "\"";
      break;
    case Json::Type::kArray: {
      *out += "[";
      for (size_t i = 0; i < value.array.size(); ++i) {
        if (i > 0) *out += ", ";
        SerializeJson(value.array[i], indent, out);
      }
      *out += "]";
      break;
    }
    case Json::Type::kObject: {
      *out += "{\n";
      size_t i = 0;
      for (const auto& [key, member] : value.object) {
        *out += pad + "  \"" + JsonEscapeString(key) + "\": ";
        SerializeJson(member, indent + 2, out);
        *out += ++i < value.object.size() ? ",\n" : "\n";
      }
      *out += pad + "}";
      break;
    }
  }
}

// Store stage: packs the trained forest into a binary store, then
// compares registry cold-start to first prediction — the literal
// serving boot paths, ModelRegistry::LoadModel (text parse +
// ContentHash re-serialization + lazy compile forced by the predict)
// vs ModelRegistry::LoadStore (mmap, packed hash, compiled-array
// adoption). Both are repeated and the minimum taken so the reported
// ratio reflects the format, not scheduler noise. Bit-parity is
// checked over the full training set.
void MeasureStore(const Dataset& train, const Forest& forest,
                  WorkloadResult* result) {
  using Clock = std::chrono::steady_clock;
  const std::string text_path = "bench_store_" + result->name + ".txt";
  const std::string store_path = "bench_store_" + result->name + ".gefs";

  if (Status s = SaveForest(forest, text_path); !s.ok()) {
    std::fprintf(stderr, "store stage: cannot save text model: %s\n",
                 s.ToString().c_str());
    return;
  }
  store::StoreBuilder builder;
  if (Status s = builder.AddForest(result->name, forest); !s.ok()) {
    std::fprintf(stderr, "store stage: cannot pack forest: %s\n",
                 s.ToString().c_str());
    return;
  }
  if (Status s = builder.WriteTo(store_path); !s.ok()) {
    std::fprintf(stderr, "store stage: cannot write store: %s\n",
                 s.ToString().c_str());
    return;
  }

  std::vector<double> probe;
  train.GetRowInto(0, &probe);

  constexpr int kReps = 5;
  double text_s = 0.0;
  double mmap_s = 0.0;
  std::vector<double> text_predictions;
  std::vector<double> mmap_predictions;
  bool failed = false;
  for (int rep = 0; rep < kReps && !failed; ++rep) {
    {
      serve::ModelRegistry registry;
      const Clock::time_point start = Clock::now();
      if (Status s = registry.LoadModel(result->name, text_path, "gef");
          !s.ok()) {
        std::fprintf(stderr, "store stage: text load failed: %s\n",
                     s.ToString().c_str());
        failed = true;
        break;
      }
      auto model = registry.Get(result->name);
      model->forest.Predict(probe);  // forces the lazy compile
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (rep == 0 || elapsed < text_s) text_s = elapsed;
      if (rep == 0) text_predictions = model->forest.PredictBatch(train);
    }
    {
      serve::ModelRegistry registry;
      const Clock::time_point start = Clock::now();
      if (Status s = registry.LoadStore(store_path); !s.ok()) {
        std::fprintf(stderr, "store stage: mmap load failed: %s\n",
                     s.ToString().c_str());
        failed = true;
        break;
      }
      auto model = registry.Get(result->name);
      model->forest.Predict(probe);  // already compiled: adopted arrays
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (rep == 0 || elapsed < mmap_s) mmap_s = elapsed;
      if (rep == 0) mmap_predictions = model->forest.PredictBatch(train);
    }
  }
  std::remove(text_path.c_str());
  std::remove(store_path.c_str());
  if (failed) return;

  result->store_text_load_s = text_s;
  result->store_mmap_load_s = mmap_s;
  result->store_speedup = mmap_s > 0.0 ? text_s / mmap_s : 0.0;
  result->store_bit_identical =
      text_predictions.size() == mmap_predictions.size() &&
      std::memcmp(text_predictions.data(), mmap_predictions.data(),
                  text_predictions.size() * sizeof(double)) == 0;
}

// Runs one workload: train a GBDT, run the GEF pipeline, touch the
// SHAP/PDP baselines, then attribute everything from the obs flush.
WorkloadResult RunWorkload(const std::string& name, const Dataset& train,
                           const GbdtConfig& forest_config,
                           const GefConfig& gef_config) {
  WorkloadResult result;
  result.name = name;
  result.train_rows = train.num_rows();
  result.num_trees = forest_config.num_trees;

  obs::Flush();  // start the stage attribution from a clean buffer

  Forest forest = TrainGbdt(train, nullptr, forest_config).forest;
  // Staged rather than ExplainForest so the sampling artifacts survive
  // for the surrogate head-to-head below: both backends must fit on the
  // same domains and the same D*.
  GefSamplingArtifacts artifacts =
      BuildSamplingArtifacts(forest, gef_config);
  std::unique_ptr<GefExplanation> explanation =
      FitExplanation(forest, artifacts, gef_config);
  if (explanation == nullptr) {
    std::fprintf(stderr, "workload %s: GAM fit failed\n", name.c_str());
    return result;
  }

  // Baseline explainers, scaled to a token set so their spans land in
  // the trace without dominating the report's wall-time.
  {
    TreeShapExplainer shap(forest);
    std::vector<double> row;
    for (size_t i = 0; i < std::min<size_t>(10, train.num_rows()); ++i) {
      train.GetRowInto(i, &row);
      shap.Explain(row);
    }
    int feature = explanation->selected_features.front();
    PartialDependence1d(forest, train, feature,
                        FeatureGrid(train, feature, 15));
  }

  FidelityReport fidelity =
      EvaluateFidelity(*explanation, forest, explanation->dstar_test);
  result.fidelity_r2 = fidelity.r2;
  result.fidelity_rmse = fidelity.rmse;

  obs::Aggregates aggregates = obs::Flush();
  for (const auto& [key, span] : kStageSpans) {
    result.stages_s[key] = aggregates.SpanSeconds(span);
  }
  double label_s = aggregates.SpanSeconds("gef.dstar_label");
  double rows = aggregates.Counter("gef.dstar_rows_labeled");
  result.dstar_rows_per_s = label_s > 0.0 ? rows / label_s : 0.0;
  result.peak_rss_bytes = aggregates.peak_rss_bytes != 0
                              ? aggregates.peak_rss_bytes
                              : obs::PeakRssBytes();
  // After the flush so the store loads don't skew stage attribution.
  MeasureStore(train, forest, &result);

  // Two-backend fidelity head-to-head (DESIGN.md §3.19). spline_gam
  // reuses the pipeline fit — same fidelity, gam_fit stage wall-time —
  // while boosted_fanova is fitted fresh on the identical artifacts.
  // Runs after the flush so its spans don't pollute stage attribution;
  // its fit_s includes the (cheap, deterministic) component re-selection
  // FitExplanation performs, which is shared overhead, not model cost.
  result.surrogates["spline_gam"] = {result.stages_s.at("gam_fit"),
                                     result.fidelity_r2,
                                     result.fidelity_rmse};
  {
    using Clock = std::chrono::steady_clock;
    GefConfig fanova_config = gef_config;
    fanova_config.surrogate_backend = "boosted_fanova";
    const Clock::time_point start = Clock::now();
    std::unique_ptr<GefExplanation> fanova =
        FitExplanation(forest, artifacts, fanova_config);
    const double fit_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (fanova == nullptr) {
      std::fprintf(stderr, "workload %s: boosted_fanova fit failed\n",
                   name.c_str());
    } else {
      FidelityReport fanova_fidelity =
          EvaluateFidelity(*fanova, forest, fanova->dstar_test);
      result.surrogates["boosted_fanova"] = {fit_s, fanova_fidelity.r2,
                                             fanova_fidelity.rmse};
    }
  }
  return result;
}

Status WriteReport(const std::string& path,
                   const std::vector<WorkloadResult>& workloads,
                   bool smoke, const std::vector<Json>& serving_workloads) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"" << kSchema << "\",\n";
  out << "  \"pr\": \"" << kPrLabel << "\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"num_threads\": " << NumThreads() << ",\n";
  out << "  \"workloads\": [\n";
  const size_t total = workloads.size() + serving_workloads.size();
  for (size_t w = 0; w < workloads.size(); ++w) {
    const WorkloadResult& r = workloads[w];
    out << "    {\n";
    out << "      \"name\": \"" << r.name << "\",\n";
    out << "      \"train_rows\": " << r.train_rows << ",\n";
    out << "      \"num_trees\": " << r.num_trees << ",\n";
    out << "      \"stages_s\": {";
    bool first = true;
    for (const auto& [key, seconds] : r.stages_s) {
      out << (first ? "" : ", ") << "\"" << key
          << "\": " << FormatDouble(seconds);
      first = false;
    }
    out << "},\n";
    out << "      \"dstar_rows_per_s\": "
        << FormatDouble(r.dstar_rows_per_s) << ",\n";
    out << "      \"fidelity\": {\"r2\": " << FormatDouble(r.fidelity_r2)
        << ", \"rmse\": " << FormatDouble(r.fidelity_rmse) << "},\n";
    out << "      \"surrogates\": {";
    bool sfirst = true;
    for (const auto& [backend, stat] : r.surrogates) {
      out << (sfirst ? "" : ", ") << "\"" << backend
          << "\": {\"fit_s\": " << FormatDouble(stat.fit_s)
          << ", \"r2\": " << FormatDouble(stat.r2)
          << ", \"rmse\": " << FormatDouble(stat.rmse) << "}";
      sfirst = false;
    }
    out << "},\n";
    out << "      \"store\": {\"text_load_s\": "
        << FormatDouble(r.store_text_load_s)
        << ", \"mmap_load_s\": " << FormatDouble(r.store_mmap_load_s)
        << ", \"speedup\": " << FormatDouble(r.store_speedup)
        << ", \"bit_identical\": "
        << (r.store_bit_identical ? "true" : "false") << "},\n";
    out << "      \"peak_rss_bytes\": " << r.peak_rss_bytes << "\n";
    out << "    }" << (w + 1 < total ? "," : "") << "\n";
  }
  for (size_t w = 0; w < serving_workloads.size(); ++w) {
    std::string rendered;
    SerializeJson(serving_workloads[w], 4, &rendered);
    out << "    " << rendered
        << (workloads.size() + w + 1 < total ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return WriteFileAtomic(path, out.str());
}

// Schema check for --validate. Returns a list of problems (empty = ok).
std::vector<std::string> ValidateReport(const Json& root) {
  std::vector<std::string> problems;
  auto require = [&problems](bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
    return ok;
  };
  if (!require(root.type == Json::Type::kObject,
               "root must be an object")) {
    return problems;
  }
  auto field = [&root](const std::string& key) -> const Json* {
    auto it = root.object.find(key);
    return it == root.object.end() ? nullptr : &it->second;
  };
  const Json* schema = field("schema");
  require(schema != nullptr && schema->type == Json::Type::kString &&
              schema->str == kSchema,
          std::string("schema must be \"") + kSchema + "\"");
  require(field("pr") != nullptr &&
              field("pr")->type == Json::Type::kString,
          "pr must be a string");
  require(field("num_threads") != nullptr &&
              field("num_threads")->type == Json::Type::kNumber,
          "num_threads must be a number");
  const Json* workloads = field("workloads");
  if (!require(workloads != nullptr &&
                   workloads->type == Json::Type::kArray &&
                   !workloads->array.empty(),
               "workloads must be a non-empty array")) {
    return problems;
  }
  for (const Json& w : workloads->array) {
    if (!require(w.type == Json::Type::kObject,
                 "workload must be an object")) {
      continue;
    }
    auto wfield = [&w](const std::string& key) -> const Json* {
      auto it = w.object.find(key);
      return it == w.object.end() ? nullptr : &it->second;
    };
    const Json* wname = wfield("name");
    std::string label =
        wname != nullptr && wname->type == Json::Type::kString
            ? wname->str
            : "<unnamed>";
    require(wname != nullptr, "workload missing name");
    const Json* serving = wfield("serving");
    if (serving != nullptr) {
      // Serving workload (gef_loadgen): the serving section replaces
      // the pipeline stage/fidelity requirements.
      if (!require(serving->type == Json::Type::kObject,
                   label + ": serving must be an object")) {
        continue;
      }
      auto sfield = [serving](const std::string& key) -> const Json* {
        auto it = serving->object.find(key);
        return it == serving->object.end() ? nullptr : &it->second;
      };
      const Json* endpoint = sfield("endpoint");
      require(endpoint != nullptr &&
                  endpoint->type == Json::Type::kString,
              label + ": serving.endpoint must be a string");
      for (const char* key : kServingNumberKeys) {
        const Json* v = sfield(key);
        require(v != nullptr && v->type == Json::Type::kNumber &&
                    std::isfinite(v->number) && v->number >= 0.0,
                label + ": serving." + key +
                    " must be a non-negative number");
      }
      continue;
    }
    for (const char* key : {"train_rows", "num_trees", "dstar_rows_per_s",
                            "peak_rss_bytes"}) {
      const Json* v = wfield(key);
      require(v != nullptr && v->type == Json::Type::kNumber,
              label + ": " + key + " must be a number");
    }
    const Json* stages = wfield("stages_s");
    if (require(stages != nullptr &&
                    stages->type == Json::Type::kObject,
                label + ": stages_s must be an object")) {
      for (const auto& [key, span] : kStageSpans) {
        (void)span;
        auto it = stages->object.find(key);
        require(it != stages->object.end() &&
                    it->second.type == Json::Type::kNumber &&
                    it->second.number >= 0.0,
                label + ": stages_s." + key +
                    " must be a non-negative number");
      }
    }
    const Json* fidelity = wfield("fidelity");
    if (require(fidelity != nullptr &&
                    fidelity->type == Json::Type::kObject,
                label + ": fidelity must be an object")) {
      for (const char* key : {"r2", "rmse"}) {
        auto it = fidelity->object.find(key);
        require(it != fidelity->object.end() &&
                    it->second.type == Json::Type::kNumber &&
                    std::isfinite(it->second.number),
                label + ": fidelity." + key + " must be a finite number");
      }
    }
    const Json* surrogates = wfield("surrogates");
    if (require(surrogates != nullptr &&
                    surrogates->type == Json::Type::kObject,
                label + ": surrogates must be an object")) {
      for (const char* backend : kHeadToHeadBackends) {
        auto bit = surrogates->object.find(backend);
        if (!require(bit != surrogates->object.end() &&
                         bit->second.type == Json::Type::kObject,
                     label + ": surrogates." + backend +
                         " must be an object")) {
          continue;
        }
        for (const char* key : {"fit_s", "r2", "rmse"}) {
          auto it = bit->second.object.find(key);
          require(it != bit->second.object.end() &&
                      it->second.type == Json::Type::kNumber &&
                      std::isfinite(it->second.number),
                  label + ": surrogates." + backend + "." + key +
                      " must be a finite number");
        }
      }
    }
    const Json* store = wfield("store");
    if (require(store != nullptr &&
                    store->type == Json::Type::kObject,
                label + ": store must be an object")) {
      for (const char* key : {"text_load_s", "mmap_load_s", "speedup"}) {
        auto it = store->object.find(key);
        require(it != store->object.end() &&
                    it->second.type == Json::Type::kNumber &&
                    std::isfinite(it->second.number) &&
                    it->second.number >= 0.0,
                label + ": store." + key +
                    " must be a non-negative number");
      }
      auto bit = store->object.find("bit_identical");
      require(bit != store->object.end() &&
                  bit->second.type == Json::Type::kBool,
              label + ": store.bit_identical must be a bool");
    }
  }
  return problems;
}

bool LoadJsonFile(const std::string& path, Json* root) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().message().c_str());
    return false;
  }
  StatusOr<Json> parsed = ParseJson(text.value());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                 parsed.status().message().c_str());
    return false;
  }
  *root = std::move(parsed).value();
  return true;
}

int Validate(const std::string& path) {
  Json root;
  if (!LoadJsonFile(path, &root)) return 1;
  std::vector<std::string> problems = ValidateReport(root);
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "%s: schema violation: %s\n", path.c_str(),
                 problem.c_str());
  }
  if (!problems.empty()) return 1;
  std::printf("%s: valid %s report\n", path.c_str(), kSchema);
  return 0;
}

// ---------------------------------------------------------------------
// Baseline diff (--validate X --baseline Y). Wall-time deltas are
// informational (machines differ); fidelity is a hard gate.

/// Maximum |Δ| either fidelity statistic (R², RMSE) may move between a
/// baseline and a current report before the diff fails. Wide enough to
/// absorb libm / summation-order differences across machines, far too
/// tight for a real modeling regression to hide in.
constexpr double kFidelityDriftTol = 0.02;

const Json* FindWorkload(const Json& root,
                              const std::string& name) {
  auto it = root.object.find("workloads");
  if (it == root.object.end()) return nullptr;
  for (const Json& w : it->second.array) {
    auto n = w.object.find("name");
    if (n != w.object.end() && n->second.str == name) return &w;
  }
  return nullptr;
}

double NumberAt(const Json& obj, const std::string& key,
                double fallback = 0.0) {
  auto it = obj.object.find(key);
  return it == obj.object.end() ? fallback : it->second.number;
}

int DiffAgainstBaseline(const std::string& current_path,
                        const std::string& baseline_path) {
  Json current, baseline;
  if (!LoadJsonFile(current_path, &current) ||
      !LoadJsonFile(baseline_path, &baseline)) {
    return 1;
  }
  // The baseline only needs to parse — older reports may predate schema
  // additions — but the current report was already schema-validated.
  int failures = 0;
  std::printf("\n## Bench diff: %s vs %s\n\n", current_path.c_str(),
              baseline_path.c_str());
  std::printf("| workload | stage | baseline (s) | current (s) | delta |\n");
  std::printf("|---|---|---:|---:|---:|\n");
  auto wit = current.object.find("workloads");
  for (const Json& w : wit->second.array) {
    const std::string name = w.object.at("name").str;
    const Json* base = FindWorkload(baseline, name);
    if (base == nullptr) {
      std::printf("| %s | _(not in baseline)_ | | | |\n", name.c_str());
      continue;
    }
    auto cur_serving = w.object.find("serving");
    if (cur_serving != w.object.end()) {
      // Serving workload: wall-clock stages don't exist; report the
      // throughput/tail trajectory instead (informational, like the
      // stage table — machines differ).
      auto base_serving = base->object.find("serving");
      if (base_serving == base->object.end()) {
        std::printf("| %s | _(no serving baseline)_ | | | |\n",
                    name.c_str());
        continue;
      }
      for (const char* key : {"qps", "latency_p50_ms", "latency_p99_ms"}) {
        double cur_v = NumberAt(cur_serving->second, key);
        double base_v = NumberAt(base_serving->second, key);
        double ratio = base_v > 0.0 ? cur_v / base_v : 0.0;
        std::printf(
            "| %s | %s | %.4f | %.4f | %+.1f%% (%.2fx) |\n", name.c_str(),
            key, base_v, cur_v,
            base_v > 0.0 ? 100.0 * (cur_v - base_v) / base_v : 0.0, ratio);
      }
      continue;
    }
    const Json& cur_stages = w.object.at("stages_s");
    auto bstages = base->object.find("stages_s");
    for (const auto& [key, span] : kStageSpans) {
      (void)span;
      double cur_s = NumberAt(cur_stages, key);
      double base_s = bstages == base->object.end()
                          ? 0.0
                          : NumberAt(bstages->second, key);
      double ratio = base_s > 0.0 ? cur_s / base_s : 0.0;
      std::printf("| %s | %s | %.4f | %.4f | %+.1f%% (%.2fx) |\n",
                  name.c_str(), key, base_s, cur_s,
                  base_s > 0.0 ? 100.0 * (cur_s - base_s) / base_s : 0.0,
                  ratio);
    }
    // Throughput trajectory for the compiled-inference hot path
    // (rows/s, not seconds — higher is better).
    {
      double cur_v = NumberAt(w, "dstar_rows_per_s");
      double base_v = NumberAt(*base, "dstar_rows_per_s");
      std::printf("| %s | dstar_rows_per_s | %.0f | %.0f | %+.1f%% "
                  "(%.2fx) |\n",
                  name.c_str(), base_v, cur_v,
                  base_v > 0.0 ? 100.0 * (cur_v - base_v) / base_v : 0.0,
                  base_v > 0.0 ? cur_v / base_v : 0.0);
    }
    // Store cold-start trajectory (baselines that predate the store
    // report 0 — informational only, like the stage table).
    {
      auto cur_store = w.object.find("store");
      if (cur_store != w.object.end()) {
        auto base_store = base->object.find("store");
        double cur_v = NumberAt(cur_store->second, "speedup");
        double base_v = base_store == base->object.end()
                            ? 0.0
                            : NumberAt(base_store->second, "speedup");
        std::printf("| %s | store.speedup | %.1fx | %.1fx | |\n",
                    name.c_str(), base_v, cur_v);
      }
    }
  }
  std::printf("\n### Fidelity gate (tolerance %.3g)\n\n", kFidelityDriftTol);
  for (const Json& w : wit->second.array) {
    const std::string name = w.object.at("name").str;
    const Json* base = FindWorkload(baseline, name);
    if (base == nullptr) continue;
    auto cfid = w.object.find("fidelity");
    auto bfid = base->object.find("fidelity");
    if (cfid == w.object.end() || bfid == base->object.end()) continue;
    for (const char* key : {"r2", "rmse"}) {
      double cur_v = NumberAt(cfid->second, key);
      double base_v = NumberAt(bfid->second, key);
      double drift = std::fabs(cur_v - base_v);
      bool ok = drift <= kFidelityDriftTol;
      if (!ok) ++failures;
      std::printf("- %s %s: baseline %.6g, current %.6g, drift %.3g — %s\n",
                  name.c_str(), key, base_v, cur_v, drift,
                  ok ? "OK" : "FAIL");
    }
    // Head-to-head gate: every backend present in BOTH reports must hold
    // its fidelity. Baselines that predate the surrogates object (PR9
    // and earlier) skip this silently — the plain fidelity gate above
    // still covers the default backend there.
    auto csur = w.object.find("surrogates");
    auto bsur = base->object.find("surrogates");
    if (csur == w.object.end() || bsur == base->object.end()) continue;
    for (const auto& [backend, stat] : csur->second.object) {
      auto bstat = bsur->second.object.find(backend);
      if (bstat == bsur->second.object.end()) continue;
      for (const char* key : {"r2", "rmse"}) {
        double cur_v = NumberAt(stat, key);
        double base_v = NumberAt(bstat->second, key);
        double drift = std::fabs(cur_v - base_v);
        bool ok = drift <= kFidelityDriftTol;
        if (!ok) ++failures;
        std::printf(
            "- %s %s.%s: baseline %.6g, current %.6g, drift %.3g — %s\n",
            name.c_str(), backend.c_str(), key, base_v, cur_v, drift,
            ok ? "OK" : "FAIL");
      }
    }
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "\n%d fidelity drift(s) exceed tolerance %.3g: the perf "
                 "change altered the fitted models\n",
                 failures, kFidelityDriftTol);
    return 1;
  }
  std::printf("\nfidelity unchanged within tolerance\n");
  return 0;
}

int Run(const Flags& flags) {
  const bool smoke = flags.GetBool("smoke", false);
  const std::string out_path = flags.GetString("out", "BENCH_PR10.json");
  const std::string workload = flags.GetString("workload", "all");
  const std::string serving_paths = flags.GetString("serving", "");

  // Serving workloads come pre-measured from gef_loadgen --out; merge
  // them in verbatim (schema-checked) rather than re-running the load.
  // `--serving` takes a comma-separated list so one report can carry
  // several runs (batching on vs off, predict vs explain).
  std::vector<Json> serving_workloads;
  size_t path_begin = 0;
  while (path_begin <= serving_paths.size() && !serving_paths.empty()) {
    size_t comma = serving_paths.find(',', path_begin);
    if (comma == std::string::npos) comma = serving_paths.size();
    const std::string serving_path =
        serving_paths.substr(path_begin, comma - path_begin);
    path_begin = comma + 1;
    if (serving_path.empty()) continue;
    Json serving_root;
    if (!LoadJsonFile(serving_path, &serving_root)) return 1;
    std::vector<std::string> problems = ValidateReport(serving_root);
    for (const std::string& problem : problems) {
      std::fprintf(stderr, "%s: schema violation: %s\n",
                   serving_path.c_str(), problem.c_str());
    }
    if (!problems.empty()) return 1;
    for (Json& w : serving_root.object.at("workloads").array) {
      if (w.object.find("serving") == w.object.end()) {
        std::fprintf(stderr,
                     "%s: workload without a serving section; merge "
                     "only loadgen reports\n",
                     serving_path.c_str());
        return 1;
      }
      serving_workloads.push_back(std::move(w));
    }
  }

  // Stage attribution needs the obs layer on; honour GEF_TRACE when the
  // environment set it, otherwise collect in memory only.
  if (!obs::Enabled()) obs::Enable("");

  std::vector<WorkloadResult> results;

  if (workload == "all" || workload == "synthetic") {
    Rng rng(42);
    Dataset train = MakeGDoublePrimeDataset(smoke ? 800 : 3000,
                                            {{0, 1}, {2, 3}}, &rng);
    GbdtConfig forest_config;
    forest_config.num_trees = smoke ? 30 : 120;
    forest_config.num_leaves = 16;
    forest_config.learning_rate = 0.1;
    forest_config.min_samples_leaf = 10;
    GefConfig gef_config;
    gef_config.num_univariate = 5;
    gef_config.num_bivariate = 2;
    gef_config.num_samples = smoke ? 3000 : 20000;
    gef_config.k = smoke ? 24 : 64;
    gef_config.spline_basis = smoke ? 10 : 16;
    results.push_back(
        RunWorkload("synthetic", train, forest_config, gef_config));
  }

  if (workload == "all" || workload == "census") {
    Rng rng(43);
    Dataset train = MakeCensusDatasetEncoded(smoke ? 1000 : 4000, &rng);
    GbdtConfig forest_config;
    forest_config.objective = Objective::kBinaryClassification;
    forest_config.num_trees = smoke ? 25 : 100;
    forest_config.num_leaves = smoke ? 16 : 32;
    forest_config.learning_rate = 0.1;
    forest_config.min_samples_leaf = 20;
    GefConfig gef_config;
    gef_config.num_univariate = 5;
    gef_config.num_bivariate = 1;
    gef_config.num_samples = smoke ? 3000 : 20000;
    gef_config.k = smoke ? 24 : 64;
    gef_config.spline_basis = smoke ? 10 : 16;
    results.push_back(
        RunWorkload("census", train, forest_config, gef_config));
  }

  if (results.empty()) {
    std::fprintf(stderr,
                 "unknown --workload '%s' (all, synthetic, census)\n",
                 workload.c_str());
    return 1;
  }

  if (Status s = WriteReport(out_path, results, smoke, serving_workloads);
      !s.ok()) {
    std::fprintf(stderr, "cannot write report: %s\n", s.message().c_str());
    return 1;
  }
  const size_t total = results.size() + serving_workloads.size();
  std::printf("wrote %s (%zu workload%s)\n", out_path.c_str(), total,
              total == 1 ? "" : "s");
  const std::string trace = obs::TracePath();
  if (!trace.empty()) {
    std::printf("trace JSONL appended to %s\n", trace.c_str());
  }
  for (const WorkloadResult& r : results) {
    std::printf("  %-10s train %.3fs  dstar %.3fs (%.0f rows/s)  "
                "gam %.3fs  R2 %.4f  peak RSS %.1f MB\n",
                r.name.c_str(), r.stages_s.at("forest_train"),
                r.stages_s.at("dstar_draw") + r.stages_s.at("dstar_label"),
                r.dstar_rows_per_s, r.stages_s.at("gam_fit"),
                r.fidelity_r2,
                static_cast<double>(r.peak_rss_bytes) / (1024.0 * 1024.0));
    std::printf("  %-10s store cold-start: text %.2fms, mmap %.2fms "
                "(%.1fx), predictions %s\n",
                "", r.store_text_load_s * 1e3, r.store_mmap_load_s * 1e3,
                r.store_speedup,
                r.store_bit_identical ? "bit-identical" : "DIVERGED");
    for (const auto& [backend, stat] : r.surrogates) {
      std::printf("  %-10s surrogate %-14s fit %.3fs  R2 %.4f  "
                  "RMSE %.5f\n",
                  "", backend.c_str(), stat.fit_s, stat.r2, stat.rmse);
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  StatusOr<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
    return 1;
  }
  const Flags& flags = parsed.value();
  std::string validate_path = flags.GetString("validate", "");
  std::string baseline_path = flags.GetString("baseline", "");
  const bool smoke_read = flags.GetBool("smoke", false);
  (void)smoke_read;
  int code = 0;
  if (!validate_path.empty()) {
    code = Validate(validate_path);
    if (code == 0 && !baseline_path.empty()) {
      code = DiffAgainstBaseline(validate_path, baseline_path);
    }
  } else {
    code = Run(flags);
  }
  if (!flags.status().ok()) {
    std::fprintf(stderr, "%s\n", flags.status().message().c_str());
    return 1;
  }
  std::vector<std::string> unread = flags.UnreadFlags();
  if (!unread.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", unread.front().c_str());
    return 1;
  }
  return code;
}

}  // namespace
}  // namespace gef

int main(int argc, char** argv) { return gef::Main(argc, argv); }
