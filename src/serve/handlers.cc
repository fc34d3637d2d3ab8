#include "serve/handlers.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gef/local_explanation.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/string_util.h"

namespace gef {
namespace serve {
namespace {

/// Records request count + latency for one endpoint label.
class ScopedEndpointMetrics {
 public:
  explicit ScopedEndpointMetrics(const std::string& endpoint)
      : latency_(obs::metrics::GetHistogram("serve.latency_s." +
                                            endpoint)),
        start_(std::chrono::steady_clock::now()) {
    obs::metrics::GetCounter("serve.requests." + endpoint).Add();
  }
  ~ScopedEndpointMetrics() {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start_;
    latency_.Observe(elapsed.count());
  }
  ScopedEndpointMetrics(const ScopedEndpointMetrics&) = delete;
  ScopedEndpointMetrics& operator=(const ScopedEndpointMetrics&) =
      delete;

 private:
  obs::metrics::Histogram& latency_;
  std::chrono::steady_clock::time_point start_;
};

HttpResponse CountedError(int status, const std::string& message) {
  obs::metrics::GetCounter("serve.errors").Add();
  return MakeErrorResponse(status, message);
}

/// Resolves the target model: explicit "model" member, else the single
/// registered model. Fills `error` (already a full response) on failure.
std::shared_ptr<const ServedModel> ResolveModel(
    const ServeContext& context, const Json& body, HttpResponse* error) {
  const Json* name = body.Find("model");
  if (name != nullptr) {
    if (!name->is_string()) {
      *error = CountedError(400, "\"model\" must be a string");
      return nullptr;
    }
    auto model = context.registry->Get(name->str);
    if (model == nullptr) {
      *error = CountedError(404, "unknown model '" + name->str + "'");
    }
    return model;
  }
  auto model = context.registry->GetOnly();
  if (model == nullptr) {
    *error = CountedError(
        400, context.registry->size() == 0
                 ? "no models registered"
                 : "several models registered; request must name one");
  }
  return model;
}

/// Parses a JSON array of numbers into a row of exactly `width` values.
Status ParseRow(const Json& value, size_t width,
                std::vector<double>* row) {
  if (!value.is_array()) {
    return Status::InvalidArgument("row must be a JSON array of numbers");
  }
  if (value.array.size() != width) {
    return Status::InvalidArgument(
        "row has " + std::to_string(value.array.size()) +
        " values, model expects " + std::to_string(width));
  }
  row->clear();
  row->reserve(width);
  for (const Json& cell : value.array) {
    if (!cell.is_number()) {
      return Status::InvalidArgument(
          "row must be a JSON array of numbers");
    }
    row->push_back(cell.number);
  }
  return Status::Ok();
}

HttpResponse HandlePredict(const ServeContext& context,
                           const HttpRequest& request) {
  ScopedEndpointMetrics metrics("predict");
  GEF_OBS_SPAN("serve.predict");

  {
    // Hot path: the canonical {"model":...,"row":[...]} body skips the
    // Json tree entirely. Any shape or lookup miss falls through to the
    // generic parse below, which re-reads the body and owns every
    // error response — the fast path only ever answers successes.
    bool have_model = false;
    std::string_view name;
    std::vector<double> row;
    if (ScanPredictBody(request.body, &have_model, &name, &row)) {
      auto model = have_model
                       ? context.registry->Get(std::string(name))
                       : context.registry->GetOnly();
      if (model != nullptr &&
          row.size() == model->forest.num_features()) {
        RequestBatcher::Result result =
            context.batcher->Predict(model, std::move(row));
        HttpResponse response;
        response.body = model->predict_prefix + "\"prediction\":" +
                        JsonNumberText(result.prediction) + "}";
        return response;
      }
    }
  }

  StatusOr<Json> body = ParseJson(request.body);
  if (!body.ok()) {
    return CountedError(400, body.status().message());
  }
  if (!body.value().is_object()) {
    return CountedError(400, "request body must be a JSON object");
  }
  HttpResponse error;
  auto model = ResolveModel(context, body.value(), &error);
  if (model == nullptr) return error;
  const size_t width = model->forest.num_features();

  const Json* row_json = body.value().Find("row");
  const Json* rows_json = body.value().Find("rows");
  if ((row_json == nullptr) == (rows_json == nullptr)) {
    return CountedError(
        400, "request must carry exactly one of \"row\" or \"rows\"");
  }

  std::string out = model->predict_prefix;
  if (row_json != nullptr) {
    std::vector<double> row;
    Status parsed = ParseRow(*row_json, width, &row);
    if (!parsed.ok()) return CountedError(400, parsed.message());
    RequestBatcher::Result result =
        context.batcher->Predict(model, std::move(row));
    out += "\"prediction\":" + JsonNumberText(result.prediction) + "}";
  } else {
    if (!rows_json->is_array()) {
      return CountedError(400, "\"rows\" must be an array of rows");
    }
    // A client-provided batch is already coalesced work; score it here
    // rather than re-queueing row-by-row through the micro-batcher.
    std::vector<double> predictions;
    predictions.reserve(rows_json->array.size());
    std::vector<double> row;
    for (const Json& cell : rows_json->array) {
      Status parsed = ParseRow(cell, width, &row);
      if (!parsed.ok()) return CountedError(400, parsed.message());
      predictions.push_back(model->forest.Predict(row.data()));
    }
    out += "\"predictions\":" + JsonNumberArray(predictions) + "}";
  }

  HttpResponse response;
  response.body = std::move(out);
  return response;
}

std::string RenderLocalExplanation(const LocalExplanation& local) {
  std::string out = "{\"gam_prediction\":";
  out += JsonNumberText(local.gam_prediction);
  out += ",\"forest_prediction\":";
  out += JsonNumberText(local.forest_prediction);
  out += ",\"intercept\":";
  out += JsonNumberText(local.intercept);
  out += ",\"terms\":[";
  for (size_t i = 0; i < local.terms.size(); ++i) {
    const LocalTermContribution& term = local.terms[i];
    if (i > 0) out += ",";
    out += "{\"label\":\"" + JsonEscapeString(term.label) + "\"";
    out += ",\"features\":[";
    for (size_t j = 0; j < term.features.size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(term.features[j]);
    }
    out += "],\"contribution\":" + JsonNumberText(term.contribution);
    out += ",\"lower\":" + JsonNumberText(term.lower);
    out += ",\"upper\":" + JsonNumberText(term.upper);
    out += ",\"delta_minus\":" + JsonNumberText(term.delta_minus);
    out += ",\"delta_plus\":" + JsonNumberText(term.delta_plus);
    out += "}";
  }
  out += "]";
  return out;
}

// Fixed caps on what one /v1/explain request may ask the fit to do.
// ValidateGefConfig sets the floors; these bound the cost (D* size,
// design width, Gram size) whatever the server's own defaults are.
constexpr double kMaxNumSamples = 200000;
constexpr int kMaxK = 640;
constexpr int kMaxSplineBasis = 64;
constexpr int kMaxTensorBasis = 16;
constexpr int kMaxNumUnivariate = 64;
constexpr int kMaxNumBivariate = 8;

// An integral JSON number in [0, max]: anything else (1.5, -1, 1e300)
// would be an undefined or silently truncating cast.
bool IsIntegerUpTo(const Json& member, double max) {
  return member.is_number() && member.number >= 0 &&
         member.number <= max && std::floor(member.number) == member.number;
}

/// Applies the optional "config" overrides onto the server defaults and
/// validates the result (ValidateGefConfig), so a bad override is a 400
/// here and never a fatal check inside the cached fit. Sets
/// `overridden` when any field differs from the defaults, which decides
/// whether a preloaded explanation is still valid.
Status ApplyConfigOverrides(const Json& body, GefConfig* config,
                            bool* overridden) {
  *overridden = false;
  const Json* overrides = body.Find("config");
  if (overrides == nullptr) return Status::Ok();
  if (!overrides->is_object()) {
    return Status::InvalidArgument("\"config\" must be a JSON object");
  }
  struct IntField {
    const char* key;
    int* target;
    int max;
  };
  const IntField int_fields[] = {
      {"num_univariate", &config->num_univariate, kMaxNumUnivariate},
      {"num_bivariate", &config->num_bivariate, kMaxNumBivariate},
      {"k", &config->k, kMaxK},
      {"spline_basis", &config->spline_basis, kMaxSplineBasis},
      {"tensor_basis", &config->tensor_basis, kMaxTensorBasis},
  };
  const auto not_integer = [](const std::string& key, double max) {
    return Status::InvalidArgument("config." + key +
                                   " must be an integer from 0 to " +
                                   FormatDouble(max, 20));
  };
  for (const auto& [key, member] : overrides->object) {
    bool known = false;
    for (const IntField& field : int_fields) {
      if (key != field.key) continue;
      known = true;
      if (!IsIntegerUpTo(member, field.max)) {
        return not_integer(key, field.max);
      }
      *field.target = static_cast<int>(member.number);
      *overridden = true;
    }
    if (key == "num_samples") {
      known = true;
      if (!IsIntegerUpTo(member, kMaxNumSamples)) {
        return not_integer(key, kMaxNumSamples);
      }
      config->num_samples = static_cast<size_t>(member.number);
      *overridden = true;
    }
    if (key == "seed") {
      known = true;
      // The largest double below 2^64; every integer up to it casts.
      constexpr double kMaxSeed = 18446744073709549568.0;
      if (!IsIntegerUpTo(member, kMaxSeed)) {
        return not_integer(key, kMaxSeed);
      }
      config->seed = static_cast<uint64_t>(member.number);
      *overridden = true;
    }
    if (key == "surrogate_backend") {
      known = true;
      if (!member.is_string()) {
        return Status::InvalidArgument(
            "config.surrogate_backend must be a string");
      }
      config->surrogate_backend = member.str;
      *overridden = true;
    }
    if (!known) {
      return Status::InvalidArgument("unknown config field \"" + key +
                                     "\"");
    }
  }
  if (Status valid = ValidateGefConfig(*config); !valid.ok()) {
    return Status::InvalidArgument("config: " + valid.message());
  }
  return Status::Ok();
}

HttpResponse HandleExplain(const ServeContext& context,
                           const HttpRequest& request) {
  ScopedEndpointMetrics metrics("explain");
  GEF_OBS_SPAN("serve.explain");

  StatusOr<Json> body = ParseJson(request.body);
  if (!body.ok()) {
    return CountedError(400, body.status().message());
  }
  if (!body.value().is_object()) {
    return CountedError(400, "request body must be a JSON object");
  }
  HttpResponse error;
  auto model = ResolveModel(context, body.value(), &error);
  if (model == nullptr) return error;

  const Json* row_json = body.value().Find("row");
  if (row_json == nullptr) {
    return CountedError(400, "request must carry \"row\"");
  }
  std::vector<double> row;
  Status parsed =
      ParseRow(*row_json, model->forest.num_features(), &row);
  if (!parsed.ok()) return CountedError(400, parsed.message());

  double step_fraction = 0.05;
  if (const Json* step = body.value().Find("step_fraction");
      step != nullptr) {
    if (!step->is_number() || step->number <= 0 || step->number > 1) {
      return CountedError(400, "\"step_fraction\" must be in (0, 1]");
    }
    step_fraction = step->number;
  }

  GefConfig config = context.default_config;
  bool overridden = false;
  Status applied =
      ApplyConfigOverrides(body.value(), &config, &overridden);
  if (!applied.ok()) return CountedError(400, applied.message());

  std::shared_ptr<const GefExplanation> surrogate;
  if (!overridden && model->preloaded_explanation != nullptr) {
    surrogate = model->preloaded_explanation;
  } else {
    const Forest& forest = model->forest;
    surrogate = context.cache->GetOrFit(
        model->hash, config,
        [&forest, &config] { return ExplainForest(forest, config); });
  }
  if (surrogate == nullptr) {
    return CountedError(
        500, "surrogate fit failed (singular GAM for every lambda)");
  }

  RequestBatcher::Result result = context.batcher->Explain(
      model, surrogate, std::move(row), step_fraction);
  if (!result.local.has_value()) {
    return CountedError(500, "explanation unavailable");
  }

  HttpResponse response;
  response.body = "{\"model\":\"" + JsonEscapeString(model->name) +
                  "\",\"hash\":\"" + HashToHex(model->hash) +
                  "\",\"backend\":\"" +
                  JsonEscapeString(surrogate->surrogate->backend_name()) +
                  "\"," +
                  RenderLocalExplanation(*result.local).substr(1) + "}";
  return response;
}

HttpResponse HandleModels(const ServeContext& context) {
  ScopedEndpointMetrics metrics("models");
  std::string out = "{\"models\":[";
  bool first = true;
  for (const auto& model : context.registry->List()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscapeString(model->name) + "\"";
    out += ",\"hash\":\"" + HashToHex(model->hash) + "\"";
    out += ",\"trees\":" + std::to_string(model->forest.num_trees());
    out += ",\"features\":" +
           std::to_string(model->forest.num_features());
    out += ",\"preloaded_explanation\":";
    out += model->preloaded_explanation != nullptr ? "true" : "false";
    if (!model->source_path.empty()) {
      out += ",\"source\":\"" + JsonEscapeString(model->source_path) +
             "\"";
    }
    out += "}";
  }
  out += "]}";
  HttpResponse response;
  response.body = std::move(out);
  return response;
}

HttpResponse HandleHealthz() {
  ScopedEndpointMetrics metrics("healthz");
  HttpResponse response;
  response.body = "{\"status\":\"ok\"}";
  return response;
}

HttpResponse HandleMetrics() {
  ScopedEndpointMetrics metrics("metrics");
  HttpResponse response;
  response.content_type = "text/plain; charset=utf-8";
  response.body = obs::metrics::RenderText();
  return response;
}

}  // namespace

// Declared in handlers.h (shared with the reactor's burst-batched
// inline predicts). Numbers must match JsonNumberLength, ParseJson's
// grammar, before std::from_chars converts them; a number from_chars
// cannot represent (an underflow like 1e-400, which strtod reads as 0)
// declines the body, and the generic path answers it.
bool ScanPredictBody(const std::string& body, bool* have_model,
                     std::string_view* model_name,
                     std::vector<double>* row) {
  const char* p = body.data();
  const char* const end = p + body.size();
  const auto skip_ws = [&p, end] {
    while (p < end &&
           (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  };
  const auto scan_string = [&p, end](std::string_view* out) {
    if (p >= end || *p != '"') return false;
    ++p;
    const char* start = p;
    while (p < end && *p != '"') {
      // Escapes and non-ASCII bytes (which ParseJson checks as UTF-8) go
      // to the generic path; raw control bytes are not JSON.
      const unsigned char byte = static_cast<unsigned char>(*p);
      if (*p == '\\' || byte < 0x20 || byte >= 0x80) return false;
      ++p;
    }
    if (p >= end) return false;
    *out = std::string_view(start, static_cast<size_t>(p - start));
    ++p;
    return true;
  };

  skip_ws();
  if (p >= end || *p != '{') return false;
  ++p;
  bool have_row = false;
  skip_ws();
  while (p < end && *p != '}') {
    std::string_view key;
    if (!scan_string(&key)) return false;
    skip_ws();
    if (p >= end || *p != ':') return false;
    ++p;
    skip_ws();
    if (key == "model" && !*have_model) {
      if (!scan_string(model_name)) return false;
      *have_model = true;
    } else if (key == "row" && !have_row) {
      if (p >= end || *p != '[') return false;
      ++p;
      skip_ws();
      while (p < end && *p != ']') {
        const char* const number_end = p + JsonNumberLength(p, end);
        if (number_end == p) return false;
        double value = 0.0;
        const auto [next, ec] = std::from_chars(p, number_end, value);
        if (ec != std::errc() || next != number_end) return false;
        row->push_back(value);
        p = next;
        skip_ws();
        if (p < end && *p == ',') {
          ++p;
          skip_ws();
          if (p >= end || *p == ']') return false;  // trailing comma
        } else if (p < end && *p != ']') {
          return false;  // missing comma
        }
      }
      if (p >= end) return false;
      ++p;  // ']'
      have_row = true;
    } else {
      return false;  // rows / config / duplicate / unknown members
    }
    skip_ws();
    if (p < end && *p == ',') {
      ++p;
      skip_ws();
      if (p < end && *p == '}') return false;  // trailing comma
    } else if (p < end && *p != '}') {
      return false;  // missing comma
    }
  }
  if (p >= end) return false;
  ++p;  // '}'
  skip_ws();
  return p == end && have_row;
}

HttpResponse HandleRequest(const ServeContext& context,
                           const HttpRequest& request) {
  const std::string& target = request.target;
  const bool is_get = request.method == "GET";
  const bool is_post = request.method == "POST";

  if (target == "/v1/predict") {
    if (!is_post) return CountedError(405, "use POST");
    return HandlePredict(context, request);
  }
  if (target == "/v1/explain") {
    if (!is_post) return CountedError(405, "use POST");
    return HandleExplain(context, request);
  }
  if (target == "/v1/models") {
    if (!is_get) return CountedError(405, "use GET");
    return HandleModels(context);
  }
  if (target == "/healthz") {
    if (!is_get) return CountedError(405, "use GET");
    return HandleHealthz();
  }
  if (target == "/metrics") {
    if (!is_get) return CountedError(405, "use GET");
    return HandleMetrics();
  }
  return CountedError(404, "no route for " + request.method + " " +
                               target);
}

}  // namespace serve
}  // namespace gef
