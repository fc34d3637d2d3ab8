// gef_serve — GEF model serving daemon.
//
// Loads one or more forest models, optionally pre-fits their GEF
// surrogates, and serves predictions and explanations over HTTP/1.1 on
// a loopback (or any IPv4) address. See DESIGN.md §3.14 for the
// architecture: ModelRegistry -> SurrogateCache -> RequestBatcher ->
// handlers.
//
// Usage:
//   gef_serve --model forest.txt [--name census] [--format gef|lightgbm]
//             [--store store.gefs]  (mmap a binary model store instead
//                                    of / in addition to --model: every
//                                    forest in it is registered with its
//                                    packed surrogate, predictions run
//                                    zero-copy off the mapping)
//             [--explanation explanation.txt]  (pre-fitted surrogate)
//             [--address 127.0.0.1] [--port 8080]   (0 = ephemeral)
//             [--shards 0]        (reactor event loops w/ SO_REUSEPORT
//                                  listeners; 0 = auto)
//             [--workers 0]       (handler threads per shard; 0 = auto)
//             [--queue-capacity 256]  (per-shard request bound; beyond
//                                      it requests are shed with 429)
//             [--read-timeout-ms 5000]   (idle / mid-request wait for
//                                         request bytes before close)
//             [--write-timeout-ms 5000]  (wait for the client to accept
//                                         response bytes)
//             [--batching true] [--batch-max 64] [--batch-wait-us 1000]
//             [--cache-capacity 8]
//             [--univariate 5] [--bivariate 0] [--samples 20000]
//             [--k 64] [--seed 7]   (surrogate pipeline defaults)
//             [--prefit]   (fit the surrogate before accepting traffic)
//
// Several models: repeat --model with --name via comma lists, e.g.
//   --model a.txt,b.txt --name first,second
//
// Endpoints: POST /v1/predict, POST /v1/explain, GET /v1/models,
// GET /healthz, GET /metrics. SIGINT/SIGTERM drains in-flight requests
// and exits 0.
//
// Exit codes: 0 clean shutdown, 1 bad usage, 2 startup failure.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gef/explainer.h"
#include "gef/explanation_io.h"
#include "serve/batcher.h"
#include "serve/handlers.h"
#include "serve/model_registry.h"
#include "serve/reactor.h"
#include "serve/surrogate_cache.h"
#include "util/shutdown.h"
#include "util/flags.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace gef {
namespace {

int Run(int argc, const char* const* argv) {
  InstallShutdownHandler();
  EnableDrainMode();

  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;

  std::string model_arg = flags.GetString("model", "");
  std::string store_path = flags.GetString("store", "");
  if (model_arg.empty() && store_path.empty()) {
    std::fprintf(stderr,
                 "usage: gef_serve --model <forest file> | --store "
                 "<store file> [options]\n"
                 "see the header of tools/gef_serve.cc for options\n");
    return 1;
  }
  std::vector<std::string> model_paths =
      model_arg.empty() ? std::vector<std::string>() : Split(model_arg, ',');
  std::string name_arg = flags.GetString("name", "");
  std::vector<std::string> names =
      name_arg.empty() ? std::vector<std::string>() : Split(name_arg, ',');
  std::string format = flags.GetString("format", "gef");
  std::string explanation_path = flags.GetString("explanation", "");

  serve::Reactor::Options server_options;
  server_options.address = flags.GetString("address", "127.0.0.1");
  server_options.port = flags.GetInt("port", 8080);
  server_options.num_shards = flags.GetInt("shards", 0);
  server_options.workers_per_shard = flags.GetInt("workers", 0);
  const int queue_capacity = flags.GetInt("queue-capacity", 256);
  server_options.read_timeout_ms = flags.GetInt("read-timeout-ms", 5000);
  server_options.write_timeout_ms =
      flags.GetInt("write-timeout-ms", 5000);

  serve::RequestBatcher::Options batch_options;
  batch_options.enabled = flags.GetBool("batching", true);
  batch_options.max_batch =
      static_cast<size_t>(flags.GetInt("batch-max", 64));
  batch_options.max_wait_us = flags.GetInt("batch-wait-us", 1000);

  int cache_capacity = flags.GetInt("cache-capacity", 8);

  GefConfig config;
  config.num_univariate = flags.GetInt("univariate", 5);
  config.num_bivariate = flags.GetInt("bivariate", 0);
  // A negative count reads as 0, which ValidateGefConfig rejects,
  // instead of wrapping to a size_t no allocation can satisfy.
  config.num_samples =
      static_cast<size_t>(std::max(0, flags.GetInt("samples", 20000)));
  config.k = flags.GetInt("k", 64);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  bool prefit = flags.GetBool("prefit", false);

  if (!flags.status().ok()) {
    std::fprintf(stderr, "%s\n", flags.status().message().c_str());
    return 1;
  }
  if (Status valid = ValidateGefConfig(config); !valid.ok()) {
    std::fprintf(stderr, "invalid pipeline flags: %s\n",
                 valid.message().c_str());
    return 1;
  }
  std::vector<std::string> unread = flags.UnreadFlags();
  if (!unread.empty()) {
    std::fprintf(stderr, "unknown flag(s): --%s\n",
                 Join(unread, ", --").c_str());
    return 1;
  }
  if (!names.empty() && names.size() != model_paths.size()) {
    std::fprintf(stderr, "--name lists %zu names for %zu models\n",
                 names.size(), model_paths.size());
    return 1;
  }
  if (cache_capacity < 1) {
    std::fprintf(stderr, "--cache-capacity must be >= 1\n");
    return 1;
  }
  if (queue_capacity < 1) {
    std::fprintf(stderr, "--queue-capacity must be >= 1\n");
    return 1;
  }
  server_options.queue_capacity = static_cast<size_t>(queue_capacity);

  serve::ModelRegistry registry;
  if (!store_path.empty()) {
    Status loaded = registry.LoadStore(store_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load store %s: %s\n",
                   store_path.c_str(), loaded.ToString().c_str());
      return 2;
    }
    for (const auto& model : registry.List()) {
      std::printf(
          "mmap-loaded model '%s' from store %s (hash %s, %zu trees%s)\n",
          model->name.c_str(), store_path.c_str(),
          HashToHex(model->hash).c_str(), model->forest.num_trees(),
          model->preloaded_explanation != nullptr ? ", packed surrogate"
                                                  : "");
    }
  }
  for (size_t i = 0; i < model_paths.size(); ++i) {
    const std::string name =
        i < names.size() ? names[i] : "model" + std::to_string(i);
    Status loaded = registry.LoadModel(name, model_paths[i], format);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n",
                   model_paths[i].c_str(), loaded.ToString().c_str());
      return 2;
    }
    auto model = registry.Get(name);
    std::printf("loaded model '%s' from %s (hash %s, %zu trees)\n",
                name.c_str(), model_paths[i].c_str(),
                HashToHex(model->hash).c_str(),
                model->forest.num_trees());
  }

  if (!explanation_path.empty()) {
    if (model_paths.size() != 1) {
      std::fprintf(stderr,
                   "--explanation requires exactly one --model\n");
      return 1;
    }
    auto loaded = LoadExplanation(explanation_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load explanation: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    auto model = registry.List()[0];
    std::shared_ptr<const GefExplanation> explanation(
        std::move(loaded).value());
    Status replaced =
        registry.AddModel(model->name, model->forest,
                          model->source_path, std::move(explanation));
    if (!replaced.ok()) {
      std::fprintf(stderr, "cannot attach explanation: %s\n",
                   replaced.ToString().c_str());
      return 2;
    }
    std::printf("attached pre-fitted explanation from %s\n",
                explanation_path.c_str());
  }

  serve::SurrogateCache cache(static_cast<size_t>(cache_capacity));
  serve::RequestBatcher batcher(batch_options);

  serve::ServeContext context;
  context.registry = &registry;
  context.cache = &cache;
  context.batcher = &batcher;
  context.default_config = config;

  if (prefit) {
    for (const auto& model : registry.List()) {
      if (model->preloaded_explanation != nullptr) continue;
      std::printf("pre-fitting surrogate for '%s'...\n",
                  model->name.c_str());
      std::fflush(stdout);
      const Forest& forest = model->forest;
      auto surrogate = cache.GetOrFit(
          model->hash, config,
          [&forest, &config] { return ExplainForest(forest, config); });
      if (surrogate == nullptr) {
        std::fprintf(stderr, "surrogate fit failed for '%s'\n",
                     model->name.c_str());
        return 2;
      }
    }
  }

  serve::Reactor server(context, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.ToString().c_str());
    return 2;
  }
  // The smoke test and loadgen parse this line for the bound port
  // (--port 0); flush so they see it before the first request.
  std::printf("listening on %s:%d\n", server_options.address.c_str(),
              server.bound_port());
  std::printf("reactor: %d shard(s), queue capacity %d\n",
              server.num_shards(), queue_capacity);
  std::fflush(stdout);

  server.Wait();
  batcher.Stop();
  std::printf("drained, exiting\n");
  return 0;
}

}  // namespace
}  // namespace gef

int main(int argc, char** argv) { return gef::Run(argc, argv); }
