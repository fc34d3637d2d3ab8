#ifndef GEF_SERVE_HANDLERS_H_
#define GEF_SERVE_HANDLERS_H_

// Endpoint logic for the serving API, decoupled from sockets: a pure
// HttpRequest -> HttpResponse function over the shared serving state.
// tests/serve_test.cc drives it directly with in-memory requests; the
// reactor (serve/reactor.h) drives it from its shard threads and worker
// threads concurrently. Everything here must therefore be thread-safe,
// and is: the registry/cache/batcher manage their own synchronization
// and handlers only work on shared_ptr snapshots.
//
// Routes:
//   POST /v1/predict   {"row":[...]} or {"rows":[[...],...]}
//   POST /v1/explain   {"row":[...], "step_fraction"?, "config"?:{...}}
//   GET  /v1/models    registered models with content hashes
//   GET  /healthz      liveness
//   GET  /metrics      obs/metrics text exposition
//
// "model" is optional in request bodies whenever exactly one model is
// registered. Malformed input is answered with 4xx JSON errors — a
// request body can never crash or wedge the server.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gef/explainer.h"
#include "serve/batcher.h"
#include "serve/http.h"
#include "serve/model_registry.h"
#include "serve/surrogate_cache.h"

namespace gef {
namespace serve {

/// Shared serving state, owned by main() / the test; handlers borrow.
struct ServeContext {
  ModelRegistry* registry = nullptr;
  SurrogateCache* cache = nullptr;
  RequestBatcher* batcher = nullptr;
  /// Pipeline defaults for explain requests that don't override them.
  GefConfig default_config;
};

/// Routes one parsed request. Never throws; every failure path returns
/// a JSON error response with the right status code.
HttpResponse HandleRequest(const ServeContext& context,
                           const HttpRequest& request);

/// Zero-allocation scan of the canonical single-row predict body — an
/// object with only "model" (escape-free ASCII string, optional) and "row"
/// (array of plain numbers) members, either order. Returns false
/// WITHOUT reporting an error on any other shape (escapes, "rows",
/// unknown members, malformed JSON): callers fall back to the generic
/// Json-tree path in HandleRequest, which owns the full grammar and
/// the exact error responses. Every body it accepts is one ParseJson
/// accepts, with the same model and bit-identical row (serve_test checks
/// this on mutated bodies). Shared between the predict handler's fast
/// path and the reactor's burst-batched inline predicts, which must
/// accept exactly the same bodies.
bool ScanPredictBody(const std::string& body, bool* have_model,
                     std::string_view* model_name,
                     std::vector<double>* row);

}  // namespace serve
}  // namespace gef

#endif  // GEF_SERVE_HANDLERS_H_
