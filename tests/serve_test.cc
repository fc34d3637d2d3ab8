// Tests for the serving subsystem (DESIGN.md §3.14): content hashing,
// the always-on metrics registry, the HTTP wire format (JSON itself is
// tested in util_test.cc), the shutdown/file-guard plumbing, the model
// registry, the single-flight surrogate cache, the request batcher and
// the endpoint handlers.
//
// Handler/cache/batcher logic runs on in-memory buffers; the epoll
// reactor (PR 9) is additionally exercised over real loopback sockets
// (ReactorServeTest) — still in-process, no child processes, so the
// whole suite is TSan/ASan-friendly. The full binary is exercised
// end-to-end by tools/serve_smoke.sh.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "forest/gbdt_trainer.h"
#include "forest/serialization.h"
#include "gef/local_explanation.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/handlers.h"
#include "serve/http.h"
#include "serve/model_registry.h"
#include "serve/reactor.h"
#include "serve/surrogate_cache.h"
#include "stats/rng.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/shutdown.h"

namespace gef {
namespace {

using serve::HttpLimits;
using serve::HttpRequest;
using serve::HttpRequestParser;
using serve::HttpResponse;
using serve::ModelRegistry;
using serve::RequestBatcher;
using serve::ServeContext;
using serve::ServedModel;
using serve::SurrogateCache;

Forest TrainSmallForest(uint64_t seed = 111) {
  Rng rng(seed);
  Dataset data = MakeGPrimeDataset(400, &rng);
  GbdtConfig config;
  config.num_trees = 8;
  config.num_leaves = 6;
  config.min_samples_leaf = 5;
  return TrainGbdt(data, nullptr, config).forest;
}

/// A deliberately tiny pipeline config so explain paths stay fast.
GefConfig TinyGefConfig() {
  GefConfig config;
  config.num_univariate = 2;
  config.num_bivariate = 0;
  config.k = 8;
  config.num_samples = 600;
  config.spline_basis = 8;
  config.seed = 5;
  return config;
}

// ---------------------------------------------------------------------
// util/hash
// ---------------------------------------------------------------------

TEST(HashTest, Fnv1aKnownVectors) {
  // Published FNV-1a 64-bit vectors.
  EXPECT_EQ(HashFnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(HashFnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(HashFnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashTest, PointerAndStringViewAgree) {
  const std::string text = "serving layer";
  EXPECT_EQ(HashFnv1a64(text.data(), text.size()),
            HashFnv1a64(std::string_view(text)));
}

TEST(HashTest, CombineIsOrderSensitive) {
  uint64_t a = HashCombine(HashCombine(1, 2), 3);
  uint64_t b = HashCombine(HashCombine(1, 3), 2);
  EXPECT_NE(a, b);
}

TEST(HashTest, CombineDoubleNormalizesSignedZero) {
  EXPECT_EQ(HashCombineDouble(7, 0.0), HashCombineDouble(7, -0.0));
  EXPECT_NE(HashCombineDouble(7, 0.0), HashCombineDouble(7, 1.0));
}

TEST(HashTest, HexRoundTrip) {
  const uint64_t value = 0x0123456789abcdefULL;
  std::string hex = HashToHex(value);
  EXPECT_EQ(hex, "0123456789abcdef");
  uint64_t parsed = 0;
  ASSERT_TRUE(HashFromHex(hex, &parsed));
  EXPECT_EQ(parsed, value);
}

TEST(HashTest, HexRejectsMalformed) {
  uint64_t out = 0;
  EXPECT_FALSE(HashFromHex("", &out));
  EXPECT_FALSE(HashFromHex("123", &out));                  // too short
  EXPECT_FALSE(HashFromHex("0123456789abcdeg", &out));     // bad digit
  EXPECT_FALSE(HashFromHex("0123456789abcdef0", &out));    // too long
}

TEST(HashTest, ForestContentHashIsSerializationStable) {
  Forest forest = TrainSmallForest();
  uint64_t original = forest.ContentHash();
  auto restored = ForestFromString(ForestToString(forest));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->ContentHash(), original);
  // A different forest must (with overwhelming probability) differ.
  EXPECT_NE(TrainSmallForest(222).ContentHash(), original);
}

// ---------------------------------------------------------------------
// obs/metrics
// ---------------------------------------------------------------------

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  obs::metrics::ResetAllForTest();
  auto& counter = obs::metrics::GetCounter("test.requests");
  counter.Add();
  counter.Add(4);
  EXPECT_EQ(counter.Value(), 5u);
  // Same name resolves to the same cell.
  EXPECT_EQ(&obs::metrics::GetCounter("test.requests"), &counter);

  obs::metrics::GetGauge("test.resident").Set(3.5);
  EXPECT_DOUBLE_EQ(obs::metrics::GetGauge("test.resident").Value(), 3.5);

  auto& histogram = obs::metrics::GetHistogram("test.latency");
  for (int i = 1; i <= 100; ++i) histogram.Observe(i * 0.001);
  auto snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 100u);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.001);
  EXPECT_DOUBLE_EQ(snapshot.max, 0.1);
  // Geometric buckets: quantiles are approximate; demand sane ordering.
  EXPECT_LE(snapshot.p50, snapshot.p90);
  EXPECT_LE(snapshot.p90, snapshot.p99);
  EXPECT_GT(snapshot.p50, 0.0);
  EXPECT_LE(snapshot.p99, snapshot.max * 2.0);
}

TEST(MetricsTest, RenderTextListsEveryMetric) {
  obs::metrics::ResetAllForTest();
  obs::metrics::GetCounter("render.count").Add(2);
  obs::metrics::GetGauge("render.gauge").Set(1.0);
  obs::metrics::GetHistogram("render.hist").Observe(0.5);
  std::string text = obs::metrics::RenderText();
  EXPECT_NE(text.find("render.count 2"), std::string::npos);
  EXPECT_NE(text.find("render.gauge"), std::string::npos);
  EXPECT_NE(text.find("render.hist.count 1"), std::string::npos);
  EXPECT_NE(text.find("render.hist.p99"), std::string::npos);
}

TEST(MetricsTest, ConcurrentObserveIsConsistent) {
  obs::metrics::ResetAllForTest();
  auto& counter = obs::metrics::GetCounter("stress.count");
  auto& histogram = obs::metrics::GetHistogram("stress.hist");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add();
        histogram.Observe(1e-4 * (t + 1));
        if (i % 64 == 0) {
          // Concurrent scrape while writers are active — the contract
          // /metrics depends on.
          (void)obs::metrics::RenderText();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(histogram.Snapshot().count,
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(MetricsTest, EmptyHistogramSnapshotIsZeroed) {
  obs::metrics::ResetAllForTest();
  auto snapshot = obs::metrics::GetHistogram("empty.hist").Snapshot();
  // min_/max_ live at +/-infinity between observations (the CAS-fold
  // identity); an empty snapshot must render that as zeros, never leak
  // the sentinels into /metrics.
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.sum, 0.0);
}

TEST(MetricsTest, HistogramMinMaxSurviveFirstObservationRace) {
  // Regression test for a seeding race: Observe() used to special-case
  // the first observation with plain min_/max_ stores, which could
  // overwrite a racing thread's already-CAS-folded better extremum
  // (thread A wins the count 0->1 increment, thread B folds its smaller
  // value first, A's seed store clobbers it). The fix seeds min_/max_
  // at +/-infinity so every observation goes through the CAS fold.
  // Repeat the empty->stampede cycle so the first-observation window is
  // exercised many times.
  auto& histogram = obs::metrics::GetHistogram("race.hist");
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    obs::metrics::ResetAllForTest();
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      // Thread t observes t+1: the true min (1.0) and max (kThreads)
      // are each raced against the other threads' first observations.
      threads.emplace_back(
          [&histogram, t] { histogram.Observe(static_cast<double>(t + 1)); });
    }
    for (auto& thread : threads) thread.join();
    auto snapshot = histogram.Snapshot();
    ASSERT_EQ(snapshot.count, static_cast<uint64_t>(kThreads));
    ASSERT_DOUBLE_EQ(snapshot.min, 1.0) << "lost min in round " << round;
    ASSERT_DOUBLE_EQ(snapshot.max, static_cast<double>(kThreads))
        << "lost max in round " << round;
  }
}

// ---------------------------------------------------------------------
// serve/http
// ---------------------------------------------------------------------

TEST(HttpTest, ParsesSimpleGet) {
  HttpRequestParser parser;
  auto state = parser.Consume("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(state, HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/healthz");
  EXPECT_EQ(parser.request().version, "HTTP/1.1");
  EXPECT_EQ(parser.request().headers.at("host"), "x");
  EXPECT_FALSE(parser.request().WantsClose());
}

TEST(HttpTest, ParsesPostBodyAndLowercasesHeaders) {
  HttpRequestParser parser;
  auto state = parser.Consume(
      "POST /v1/predict HTTP/1.1\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 13\r\n\r\n"
      "{\"row\": [1]}x");
  ASSERT_EQ(state, HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().body, "{\"row\": [1]}x");
  EXPECT_EQ(parser.request().headers.at("content-type"),
            "application/json");
}

TEST(HttpTest, ByteAtATimeFeeding) {
  const std::string wire =
      "POST /v1/predict HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  HttpRequestParser parser;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_EQ(parser.Consume(wire.substr(i, 1)),
              HttpRequestParser::State::kNeedMore)
        << "at byte " << i;
  }
  ASSERT_EQ(parser.Consume(wire.substr(wire.size() - 1)),
            HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().body, "abcd");
}

TEST(HttpTest, PipelinedRequestsSurviveReset) {
  HttpRequestParser parser;
  auto state = parser.Consume(
      "GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n");
  ASSERT_EQ(state, HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().target, "/healthz");
  // Reset must re-parse the buffered second request immediately.
  ASSERT_EQ(parser.Reset(), HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().target, "/metrics");
  EXPECT_EQ(parser.Reset(), HttpRequestParser::State::kNeedMore);
}

TEST(HttpTest, TruncatedRequestStaysIncomplete) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("POST /v1/predict HTTP/1.1\r\nContent-Le"),
            HttpRequestParser::State::kNeedMore);
  EXPECT_EQ(parser.Consume("ngth: 10\r\n\r\nabc"),
            HttpRequestParser::State::kNeedMore);
}

TEST(HttpTest, OversizedHeadersAre431) {
  HttpLimits limits;
  limits.max_header_bytes = 128;
  HttpRequestParser parser(limits);
  std::string wire = "GET / HTTP/1.1\r\nX-Pad: ";
  wire += std::string(256, 'a');
  ASSERT_EQ(parser.Consume(wire), HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpTest, OversizedBodyIs413) {
  HttpLimits limits;
  limits.max_body_bytes = 64;
  HttpRequestParser parser(limits);
  auto state = parser.Consume(
      "POST /v1/predict HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
  ASSERT_EQ(state, HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpTest, TransferEncodingIs501) {
  HttpRequestParser parser;
  auto state = parser.Consume(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  ASSERT_EQ(state, HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(HttpTest, UnsupportedVersionIs505) {
  HttpRequestParser parser;
  auto state = parser.Consume("GET / HTTP/2.0\r\n\r\n");
  ASSERT_EQ(state, HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 505);
}

TEST(HttpTest, MalformedRequestLineIs400) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Consume("garbage\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);

  HttpRequestParser parser2;
  ASSERT_EQ(parser2.Consume("POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(parser2.error_status(), 400);
}

TEST(HttpTest, ConnectionCloseSemantics) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Consume(
                "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
            HttpRequestParser::State::kDone);
  EXPECT_TRUE(parser.request().WantsClose());

  HttpRequestParser parser10;
  ASSERT_EQ(parser10.Consume("GET / HTTP/1.0\r\n\r\n"),
            HttpRequestParser::State::kDone);
  EXPECT_TRUE(parser10.request().WantsClose());
}

TEST(HttpTest, SerializeResponseCarriesContentLength) {
  HttpResponse response;
  response.status = 200;
  response.body = "{\"ok\":true}";
  std::string wire = serve::SerializeHttpResponse(response);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"ok\":true}"), std::string::npos);

  HttpResponse error = serve::MakeErrorResponse(404, "nope");
  EXPECT_EQ(error.status, 404);
  EXPECT_NE(error.body.find("nope"), std::string::npos);

  // Quotes, backslashes and control characters are escaped, not
  // dropped: the body parses back to the exact message.
  const std::string message = "bad \"a\\b\"\n\x01 here";
  auto parsed = ParseJson(serve::MakeErrorResponse(400, message).body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("error")->str, message);
}

TEST(HttpTest, FuzzedWireBytesNeverCrash) {
  Rng rng(4242);
  const std::string seed_wire =
      "POST /v1/predict HTTP/1.1\r\nContent-Length: 12\r\n\r\n"
      "{\"row\":[1]}x";
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::string wire = seed_wire;
    int num_edits = 1 + static_cast<int>(rng.Uniform() * 6);
    for (int e = 0; e < num_edits; ++e) {
      size_t pos = static_cast<size_t>(rng.Uniform() * wire.size());
      wire[pos] = static_cast<char>(rng.Uniform() * 256);
    }
    HttpRequestParser parser;
    // Feed in two random-sized chunks to cover the incremental path.
    size_t split = static_cast<size_t>(rng.Uniform() * wire.size());
    parser.Consume(wire.substr(0, split));
    auto state = parser.Consume(wire.substr(split));
    if (state == HttpRequestParser::State::kError) {
      EXPECT_GE(parser.error_status(), 400);
      EXPECT_LT(parser.error_status(), 600);
    }
  }
}

// ---------------------------------------------------------------------
// util/shutdown
// ---------------------------------------------------------------------

TEST(ShutdownTest, GuardedFileIsUnlinkedOnSignalPath) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "gef_serve_test";
  fs::create_directories(dir);
  fs::path partial = dir / "partial_model.txt";
  {
    ScopedFileGuard guard(partial.string());
    std::FILE* f = std::fopen(partial.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("half-written", f);
    std::fclose(f);
    ASSERT_TRUE(fs::exists(partial));
    internal::UnlinkGuardedFilesForTest();
    EXPECT_FALSE(fs::exists(partial));
  }
}

TEST(ShutdownTest, CommittedFileSurvives) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "gef_serve_test";
  fs::create_directories(dir);
  fs::path done = dir / "committed_model.txt";
  {
    ScopedFileGuard guard(done.string());
    std::FILE* f = std::fopen(done.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("complete", f);
    std::fclose(f);
    guard.Commit();
    internal::UnlinkGuardedFilesForTest();
  }
  EXPECT_TRUE(fs::exists(done));
  fs::remove(done);
}

TEST(ShutdownTest, RequestShutdownSetsFlagAndWakesPipe) {
  InstallShutdownHandler();
  internal::ResetShutdownStateForTest();
  EXPECT_FALSE(ShutdownRequested());
  EnableDrainMode();
  RequestShutdown();
  EXPECT_TRUE(ShutdownRequested());
  EXPECT_GE(ShutdownWakeFd(), 0);
  internal::ResetShutdownStateForTest();
  EXPECT_FALSE(ShutdownRequested());
}

// ---------------------------------------------------------------------
// serve/model_registry
// ---------------------------------------------------------------------

TEST(ModelRegistryTest, AddGetListRemove) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.AddModel("a", TrainSmallForest(1)).ok());
  ASSERT_TRUE(registry.AddModel("b", TrainSmallForest(2)).ok());
  EXPECT_EQ(registry.size(), 2u);

  auto a = registry.Get("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name, "a");
  EXPECT_EQ(a->hash, a->forest.ContentHash());
  EXPECT_EQ(registry.Get("missing"), nullptr);

  // Two models: GetOnly is ambiguous.
  EXPECT_EQ(registry.GetOnly(), nullptr);
  auto list = registry.List();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0]->name, "a");
  EXPECT_EQ(list[1]->name, "b");

  EXPECT_TRUE(registry.Remove("b"));
  EXPECT_FALSE(registry.Remove("b"));
  ASSERT_NE(registry.GetOnly(), nullptr);
  EXPECT_EQ(registry.GetOnly()->name, "a");
}

TEST(ModelRegistryTest, HotSwapPreservesInFlightSnapshot) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.AddModel("m", TrainSmallForest(1)).ok());
  auto before = registry.Get("m");
  ASSERT_TRUE(registry.AddModel("m", TrainSmallForest(2)).ok());
  auto after = registry.Get("m");
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before.get(), after.get());
  EXPECT_NE(before->hash, after->hash);
  // The old snapshot still answers predictions (hot-swap contract).
  std::vector<double> row(before->forest.num_features(), 0.5);
  (void)before->forest.Predict(row);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistryTest, LoadModelHashMatchesInMemoryHash) {
  namespace fs = std::filesystem;
  Forest forest = TrainSmallForest(3);
  fs::path path =
      fs::temp_directory_path() / "gef_serve_test" / "registry_model.txt";
  fs::create_directories(path.parent_path());
  ASSERT_TRUE(SaveForest(forest, path.string()).ok());

  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadModel("disk", path.string()).ok());
  auto model = registry.Get("disk");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->hash, forest.ContentHash());
  EXPECT_EQ(model->source_path, path.string());

  EXPECT_FALSE(registry.LoadModel("bad", "/nonexistent/model.txt").ok());
  EXPECT_EQ(registry.Get("bad"), nullptr);
  fs::remove(path);
}

// ---------------------------------------------------------------------
// serve/surrogate_cache
// ---------------------------------------------------------------------

TEST(SurrogateCacheTest, ConfigFingerprintSeparatesConfigs) {
  GefConfig base = TinyGefConfig();
  GefConfig changed = base;
  changed.num_univariate += 1;
  EXPECT_NE(serve::GefConfigFingerprint(base),
            serve::GefConfigFingerprint(changed));
  GefConfig lambda_changed = base;
  lambda_changed.lambda_grid.push_back(1e3);
  EXPECT_NE(serve::GefConfigFingerprint(base),
            serve::GefConfigFingerprint(lambda_changed));
  EXPECT_EQ(serve::GefConfigFingerprint(base),
            serve::GefConfigFingerprint(TinyGefConfig()));
}

TEST(SurrogateCacheTest, SingleFlightFitsOncePerKey) {
  obs::metrics::ResetAllForTest();
  Forest forest = TrainSmallForest();
  GefConfig config = TinyGefConfig();
  SurrogateCache cache(4);
  std::atomic<int> fit_calls{0};

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const GefExplanation>> results(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = cache.GetOrFit(forest.ContentHash(), config, [&] {
        fit_calls.fetch_add(1);
        return ExplainForest(forest, config);
      });
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(fit_calls.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_NE(results[t], nullptr);
    EXPECT_EQ(results[t].get(), results[0].get());
  }
  EXPECT_EQ(obs::metrics::GetCounter("serve.gef_fits").Value(), 1u);
  EXPECT_GE(obs::metrics::GetCounter("serve.surrogate_cache.hits").Value()
                + obs::metrics::GetCounter("serve.surrogate_cache.misses")
                      .Value(),
            static_cast<uint64_t>(kThreads));
}

TEST(SurrogateCacheTest, DistinctKeysFitSeparately) {
  SurrogateCache cache(4);
  std::atomic<int> fit_calls{0};
  auto fake_fit = [&] {
    fit_calls.fetch_add(1);
    return std::make_unique<GefExplanation>();
  };
  GefConfig config = TinyGefConfig();
  (void)cache.GetOrFit(1, config, fake_fit);
  (void)cache.GetOrFit(2, config, fake_fit);
  GefConfig other = config;
  other.k *= 2;
  (void)cache.GetOrFit(1, other, fake_fit);
  (void)cache.GetOrFit(1, config, fake_fit);  // hit
  EXPECT_EQ(fit_calls.load(), 3);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(SurrogateCacheTest, LruEvictionRefitsColdKey) {
  SurrogateCache cache(2);
  std::atomic<int> fit_calls{0};
  auto fake_fit = [&] {
    fit_calls.fetch_add(1);
    return std::make_unique<GefExplanation>();
  };
  GefConfig config = TinyGefConfig();
  (void)cache.GetOrFit(1, config, fake_fit);
  (void)cache.GetOrFit(2, config, fake_fit);
  (void)cache.GetOrFit(1, config, fake_fit);  // refresh key 1
  (void)cache.GetOrFit(3, config, fake_fit);  // evicts key 2 (LRU)
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.GetOrFit(1, config, fake_fit);  // still resident
  EXPECT_EQ(fit_calls.load(), 3);
  (void)cache.GetOrFit(2, config, fake_fit);  // evicted -> refit
  EXPECT_EQ(fit_calls.load(), 4);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SurrogateCacheTest, FailedFitIsCachedAsNull) {
  SurrogateCache cache(2);
  std::atomic<int> fit_calls{0};
  GefConfig config = TinyGefConfig();
  auto failing_fit = [&]() -> std::unique_ptr<GefExplanation> {
    fit_calls.fetch_add(1);
    return nullptr;
  };
  EXPECT_EQ(cache.GetOrFit(9, config, failing_fit), nullptr);
  EXPECT_EQ(cache.GetOrFit(9, config, failing_fit), nullptr);
  EXPECT_EQ(fit_calls.load(), 1);  // deterministic failure: no retry
}

// ---------------------------------------------------------------------
// serve/batcher
// ---------------------------------------------------------------------

TEST(BatcherTest, PredictMatchesDirectForestCall) {
  auto model = std::make_shared<ServedModel>();
  model->name = "m";
  model->forest = TrainSmallForest();
  model->hash = model->forest.ContentHash();

  RequestBatcher::Options options;
  RequestBatcher batcher(options);
  Rng rng(77);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> row(model->forest.num_features());
    for (auto& v : row) v = rng.Uniform() * 5.0;
    auto result = batcher.Predict(model, row);
    EXPECT_DOUBLE_EQ(result.prediction, model->forest.Predict(row));
    EXPECT_FALSE(result.local.has_value());
  }
  batcher.Stop();
}

TEST(BatcherTest, DisabledModeExecutesInline) {
  auto model = std::make_shared<ServedModel>();
  model->forest = TrainSmallForest();
  RequestBatcher::Options options;
  options.enabled = false;
  RequestBatcher batcher(options);
  std::vector<double> row(model->forest.num_features(), 1.0);
  EXPECT_DOUBLE_EQ(batcher.Predict(model, row).prediction,
                   model->forest.Predict(row));
}

TEST(BatcherTest, ConcurrentPredictionsAllAnswered) {
  auto model = std::make_shared<ServedModel>();
  model->forest = TrainSmallForest();
  RequestBatcher::Options options;
  options.max_batch = 8;
  RequestBatcher batcher(options);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        std::vector<double> row(model->forest.num_features());
        for (auto& v : row) v = rng.Uniform() * 5.0;
        auto result = batcher.Predict(model, row);
        if (result.prediction != model->forest.Predict(row)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  batcher.Stop();  // idempotent with the destructor
}

TEST(BatcherTest, ExplainMatchesExplainInstance) {
  auto model = std::make_shared<ServedModel>();
  model->forest = TrainSmallForest();
  model->hash = model->forest.ContentHash();
  GefConfig config = TinyGefConfig();
  std::shared_ptr<const GefExplanation> surrogate(
      ExplainForest(model->forest, config).release());
  ASSERT_NE(surrogate, nullptr);

  RequestBatcher batcher(RequestBatcher::Options{});
  std::vector<double> row(model->forest.num_features(), 0.5);
  auto result = batcher.Explain(model, surrogate, row, 0.05);
  ASSERT_TRUE(result.local.has_value());

  LocalExplanation direct =
      ExplainInstance(*surrogate, model->forest, row, 0.05);
  EXPECT_DOUBLE_EQ(result.local->gam_prediction, direct.gam_prediction);
  EXPECT_DOUBLE_EQ(result.local->forest_prediction,
                   direct.forest_prediction);
  ASSERT_EQ(result.local->terms.size(), direct.terms.size());
  for (size_t i = 0; i < direct.terms.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.local->terms[i].contribution,
                     direct.terms[i].contribution);
  }
}

// ---------------------------------------------------------------------
// serve/handlers — endpoint logic over in-memory requests
// ---------------------------------------------------------------------

class HandlersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::metrics::ResetAllForTest();
    ASSERT_TRUE(registry_.AddModel("census", TrainSmallForest()).ok());
    context_.registry = &registry_;
    context_.cache = &cache_;
    context_.batcher = &batcher_;
    context_.default_config = TinyGefConfig();
    num_features_ = registry_.Get("census")->forest.num_features();
  }

  HttpResponse Call(const std::string& method, const std::string& target,
                    const std::string& body = "") {
    HttpRequest request;
    request.method = method;
    request.target = target;
    request.version = "HTTP/1.1";
    request.body = body;
    return HandleRequest(context_, request);
  }

  std::string RowLiteral() const {
    std::vector<double> row(num_features_, 0.5);
    return JsonNumberArray(row);
  }

  ModelRegistry registry_;
  SurrogateCache cache_{4};
  RequestBatcher batcher_{RequestBatcher::Options{}};
  ServeContext context_;
  size_t num_features_ = 0;
};

TEST_F(HandlersTest, HealthzAndModelsAndMetrics) {
  auto health = Call("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("ok"), std::string::npos);

  auto models = Call("GET", "/v1/models");
  EXPECT_EQ(models.status, 200);
  auto parsed = ParseJson(models.body);
  ASSERT_TRUE(parsed.ok());
  const Json* list = parsed->Find("models");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->array.size(), 1u);
  EXPECT_EQ(list->array[0].Find("name")->str, "census");
  EXPECT_EQ(list->array[0].Find("hash")->str,
            HashToHex(registry_.Get("census")->hash));

  auto metrics = Call("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; charset=utf-8");
  EXPECT_NE(metrics.body.find("serve.requests.healthz"),
            std::string::npos);
}

TEST_F(HandlersTest, PredictSingleRowAndBatchRows) {
  auto single =
      Call("POST", "/v1/predict", "{\"row\": " + RowLiteral() + "}");
  ASSERT_EQ(single.status, 200) << single.body;
  auto parsed = ParseJson(single.body);
  ASSERT_TRUE(parsed.ok());
  std::vector<double> row(num_features_, 0.5);
  EXPECT_NEAR(parsed->Find("prediction")->number,
              registry_.Get("census")->forest.Predict(row), 1e-9);
  EXPECT_EQ(parsed->Find("model")->str, "census");

  auto batch = Call("POST", "/v1/predict",
                    "{\"rows\": [" + RowLiteral() + ", " + RowLiteral() +
                        "]}");
  ASSERT_EQ(batch.status, 200) << batch.body;
  auto batch_parsed = ParseJson(batch.body);
  ASSERT_TRUE(batch_parsed.ok());
  ASSERT_EQ(batch_parsed->Find("predictions")->array.size(), 2u);
}

TEST_F(HandlersTest, PredictRejectsBadInput) {
  EXPECT_EQ(Call("POST", "/v1/predict", "{not json").status, 400);
  EXPECT_EQ(Call("POST", "/v1/predict", "{}").status, 400);
  EXPECT_EQ(Call("POST", "/v1/predict", "{\"row\": [1, 2]}").status, 400)
      << "wrong row width must be 400";
  EXPECT_EQ(Call("POST", "/v1/predict",
                 "{\"row\": " + RowLiteral() +
                     ", \"model\": \"missing\"}")
                .status,
            404);
  EXPECT_EQ(Call("POST", "/v1/predict", "{\"row\": [\"a\"]}").status, 400);
}

TEST_F(HandlersTest, EchoedBytesThatAreNotUtf8StayJson) {
  // Error bodies echo the client's path and version, and /v1/models the
  // operator's model names; a byte that is not UTF-8 must come back
  // escaped (as U+FFFD), never raw, or the body is not JSON.
  auto no_route = Call("GET", "/\xff");
  EXPECT_EQ(no_route.status, 404);
  auto route_body = ParseJson(no_route.body);
  ASSERT_TRUE(route_body.ok()) << no_route.body;
  EXPECT_NE(route_body->Find("error")->str.find("\xef\xbf\xbd"),
            std::string::npos);

  HttpRequestParser parser;
  ASSERT_EQ(parser.Consume("GET / HTTP/\xff\r\n\r\n"),
            HttpRequestParser::State::kError);
  ASSERT_EQ(parser.error_status(), 505);
  HttpResponse version =
      serve::MakeErrorResponse(parser.error_status(), parser.error_message());
  EXPECT_TRUE(ParseJson(version.body).ok()) << version.body;

  ASSERT_TRUE(registry_.AddModel("c\xff" "x", TrainSmallForest()).ok());
  auto models = Call("GET", "/v1/models");
  EXPECT_EQ(models.status, 200);
  EXPECT_TRUE(ParseJson(models.body).ok()) << models.body;
}

TEST_F(HandlersTest, NonUtf8StringIs400WithJsonBody) {
  // A raw 0xff is not UTF-8: the scanner declines it, ParseJson rejects
  // it, and the error body is itself JSON (so UTF-8).
  for (const std::string& body :
       {std::string("{\"model\":\"\xff\",\"row\":[1]}"),
        "{\"model\":\"\xc0\xaf\",\"row\":" + RowLiteral() + "}",
        "{\"row\":" + RowLiteral() + ",\"model\":\"cen\xedsus\"}"}) {
    auto response = Call("POST", "/v1/predict", body);
    EXPECT_EQ(response.status, 400) << response.body;
    auto parsed = ParseJson(response.body);
    ASSERT_TRUE(parsed.ok()) << response.body;
    EXPECT_NE(parsed->Find("error"), nullptr);
  }
  // Well-formed non-ASCII names take the generic path and are matched.
  ASSERT_TRUE(registry_.AddModel("c\xc3\xa9nsus", TrainSmallForest()).ok());
  auto named = Call("POST", "/v1/predict",
                    "{\"model\":\"c\xc3\xa9nsus\",\"row\":" +
                        RowLiteral() + "}");
  EXPECT_EQ(named.status, 200) << named.body;
  EXPECT_TRUE(ParseJson(named.body).ok()) << named.body;
}

TEST_F(HandlersTest, RoutingErrors) {
  EXPECT_EQ(Call("GET", "/v1/unknown").status, 404);
  EXPECT_EQ(Call("GET", "/v1/predict").status, 405);
  EXPECT_EQ(Call("POST", "/healthz").status, 405);
  // Error bodies are JSON with an "error" member.
  auto missing = Call("GET", "/nope");
  auto parsed = ParseJson(missing.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed->Find("error"), nullptr);
}

TEST_F(HandlersTest, ExplainFitsOnceThenHitsCache) {
  const std::string body = "{\"row\": " + RowLiteral() + "}";
  auto first = Call("POST", "/v1/explain", body);
  ASSERT_EQ(first.status, 200) << first.body;
  auto parsed = ParseJson(first.body);
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->Find("terms"), nullptr);
  EXPECT_GT(parsed->Find("terms")->array.size(), 0u);
  EXPECT_NE(parsed->Find("gam_prediction"), nullptr);
  EXPECT_NE(parsed->Find("forest_prediction"), nullptr);

  auto second = Call("POST", "/v1/explain", body);
  ASSERT_EQ(second.status, 200);
  // The amortization contract: one fit, repeat queries hit the cache.
  EXPECT_EQ(obs::metrics::GetCounter("serve.gef_fits").Value(), 1u);
  EXPECT_GE(obs::metrics::GetCounter("serve.surrogate_cache.hits").Value(),
            1u);
}

TEST_F(HandlersTest, ExplainRejectsBadStepFractionAndConfig) {
  const std::string row = RowLiteral();
  EXPECT_EQ(Call("POST", "/v1/explain",
                 "{\"row\": " + row + ", \"step_fraction\": 0}")
                .status,
            400);
  EXPECT_EQ(Call("POST", "/v1/explain",
                 "{\"row\": " + row + ", \"step_fraction\": 1.5}")
                .status,
            400);
  EXPECT_EQ(Call("POST", "/v1/explain",
                 "{\"row\": " + row +
                     ", \"config\": {\"unknown_knob\": 1}}")
                .status,
            400);

  // Values the fit would reject with a fatal check, non-integers, values
  // outside the target type and values above the per-request caps: each
  // is a 400 with a JSON error body, and none reaches a fit.
  const char* const kBadOverrides[] = {
      "\"num_univariate\": 0",       "\"num_bivariate\": -1",
      "\"k\": 0",                    "\"spline_basis\": 4",
      "\"tensor_basis\": 3",         "\"num_samples\": 10",
      "\"num_samples\": 11",         "\"num_samples\": 0",
      "\"k\": 1.5",                  "\"num_samples\": 1e300",
      "\"spline_basis\": -0.5",      "\"k\": \"8\"",
      "\"seed\": 1.5",               "\"seed\": -1",
      "\"seed\": 1e300",             "\"surrogate_backend\": \"rules\"",
      "\"surrogate_backend\": 1",    "\"num_samples\": 200001",
      "\"k\": 641",                  "\"spline_basis\": 65",
      "\"tensor_basis\": 17",        "\"num_univariate\": 65",
      "\"num_bivariate\": 9",        "\"num_univariate\": 4294967297",
  };
  for (const char* override_member : kBadOverrides) {
    auto response =
        Call("POST", "/v1/explain",
             "{\"row\": " + row + ", \"config\": {" + override_member +
                 "}}");
    EXPECT_EQ(response.status, 400) << override_member;
    auto parsed = ParseJson(response.body);
    ASSERT_TRUE(parsed.ok()) << response.body;
    EXPECT_NE(parsed->Find("error"), nullptr) << response.body;
  }
  auto unknown = Call("POST", "/v1/explain",
                      "{\"row\": " + row +
                          ", \"config\": {\"surrogate_backend\": "
                          "\"rules\"}}");
  EXPECT_NE(unknown.body.find("spline_gam"), std::string::npos)
      << "the unknown-backend error lists the known backends: "
      << unknown.body;
  EXPECT_EQ(obs::metrics::GetCounter("serve.gef_fits").Value(), 0u);
  EXPECT_EQ(Call("GET", "/healthz").status, 200);
}

TEST_F(HandlersTest, PreloadedExplanationSkipsCache) {
  Forest forest = TrainSmallForest();
  GefConfig config = TinyGefConfig();
  std::shared_ptr<const GefExplanation> preloaded(
      ExplainForest(forest, config).release());
  ASSERT_NE(preloaded, nullptr);
  ASSERT_TRUE(registry_
                  .AddModel("prefit", std::move(forest), "", preloaded)
                  .ok());

  auto response = Call("POST", "/v1/explain",
                       "{\"row\": " + RowLiteral() +
                           ", \"model\": \"prefit\"}");
  ASSERT_EQ(response.status, 200) << response.body;
  // Served from the preloaded surrogate: no pipeline fit ran.
  EXPECT_EQ(obs::metrics::GetCounter("serve.gef_fits").Value(), 0u);
}

// ---------------------------------------------------------------------
// Surrogate backend selection through /v1/explain (DESIGN.md §3.19).
// ---------------------------------------------------------------------

TEST_F(HandlersTest, ExplainDefaultBackendIsSplineGam) {
  auto response =
      Call("POST", "/v1/explain", "{\"row\": " + RowLiteral() + "}");
  ASSERT_EQ(response.status, 200) << response.body;
  auto parsed = ParseJson(response.body);
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->Find("backend"), nullptr);
  EXPECT_EQ(parsed->Find("backend")->str, "spline_gam");
}

TEST_F(HandlersTest, ExplainBackendOverrideSelectsFanova) {
  auto response = Call(
      "POST", "/v1/explain",
      "{\"row\": " + RowLiteral() +
          ", \"config\": {\"surrogate_backend\": \"boosted_fanova\"}}");
  ASSERT_EQ(response.status, 200) << response.body;
  auto parsed = ParseJson(response.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("backend")->str, "boosted_fanova");
  EXPECT_GT(parsed->Find("terms")->array.size(), 0u);
}

TEST_F(HandlersTest, ExplainUnknownBackendIs400) {
  auto response = Call(
      "POST", "/v1/explain",
      "{\"row\": " + RowLiteral() +
          ", \"config\": {\"surrogate_backend\": \"rule_list\"}}");
  EXPECT_EQ(response.status, 400) << response.body;
  auto parsed = ParseJson(response.body);
  ASSERT_TRUE(parsed.ok());
  const Json* error = parsed->Find("error");
  ASSERT_NE(error, nullptr);
  // The message names the offender and lists the registered backends.
  EXPECT_NE(error->str.find("rule_list"), std::string::npos);
  EXPECT_NE(error->str.find("spline_gam"), std::string::npos);
  EXPECT_NE(error->str.find("boosted_fanova"), std::string::npos);
  // A rejected override never reaches the cache or triggers a fit.
  EXPECT_EQ(obs::metrics::GetCounter("serve.gef_fits").Value(), 0u);
}

TEST_F(HandlersTest, ExplainBackendsCacheIndependently) {
  const std::string row = RowLiteral();
  const std::string fanova_body =
      "{\"row\": " + row +
      ", \"config\": {\"surrogate_backend\": \"boosted_fanova\"}}";
  // Two backends on the same forest: two distinct cache keys, one fit
  // each, and repeat queries hit their own entry.
  ASSERT_EQ(Call("POST", "/v1/explain", "{\"row\": " + row + "}").status,
            200);
  ASSERT_EQ(Call("POST", "/v1/explain", fanova_body).status, 200);
  EXPECT_EQ(obs::metrics::GetCounter("serve.gef_fits").Value(), 2u);
  EXPECT_EQ(cache_.size(), 2u);

  ASSERT_EQ(Call("POST", "/v1/explain", "{\"row\": " + row + "}").status,
            200);
  ASSERT_EQ(Call("POST", "/v1/explain", fanova_body).status, 200);
  EXPECT_EQ(obs::metrics::GetCounter("serve.gef_fits").Value(), 2u)
      << "repeat queries must not refit either backend";
}

TEST_F(HandlersTest, ExplainBackendSurvivesModelHotSwap) {
  const std::string fanova_body =
      "{\"row\": " + RowLiteral() +
      ", \"config\": {\"surrogate_backend\": \"boosted_fanova\"}}";
  ASSERT_EQ(Call("POST", "/v1/explain", fanova_body).status, 200);

  // Swap the model under the same name: the forest hash changes, so the
  // override must fit fresh instead of serving the stale surrogate.
  ASSERT_TRUE(registry_.AddModel("census", TrainSmallForest(222)).ok());
  num_features_ = registry_.Get("census")->forest.num_features();
  auto response = Call("POST", "/v1/explain", fanova_body);
  ASSERT_EQ(response.status, 200) << response.body;
  auto parsed = ParseJson(response.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("backend")->str, "boosted_fanova");
  EXPECT_EQ(parsed->Find("hash")->str,
            HashToHex(registry_.Get("census")->hash));
  EXPECT_EQ(obs::metrics::GetCounter("serve.gef_fits").Value(), 2u);
}

// ---------------------------------------------------------------------
// Concurrency stress: registry hot-swap + cache + batcher under TSan
// (satellite (c): run with GEF_SANITIZE=thread in the CI matrix).
// ---------------------------------------------------------------------

TEST(ServeConcurrencyTest, RegistryCacheBatcherStress) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.AddModel("hot", TrainSmallForest(1)).ok());
  Forest replacement_a = TrainSmallForest(2);
  Forest replacement_b = TrainSmallForest(3);
  SurrogateCache cache(2);
  RequestBatcher::Options options;
  options.max_batch = 8;
  RequestBatcher batcher(options);
  GefConfig config = TinyGefConfig();

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};

  // Swapper: replaces "hot" in a tight loop (copying a trained forest
  // each round) — readers must never observe a torn model.
  std::thread swapper([&] {
    int round = 0;
    while (!stop.load()) {
      Forest copy = (round++ % 2 == 0) ? replacement_a : replacement_b;
      if (!registry.AddModel("hot", std::move(copy)).ok()) {
        errors.fetch_add(1);
      }
    }
  });

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(500 + static_cast<uint64_t>(t));
      for (int i = 0; i < 60; ++i) {
        auto model = registry.Get("hot");
        if (model == nullptr) {
          errors.fetch_add(1);
          continue;
        }
        std::vector<double> row(model->forest.num_features());
        for (auto& v : row) v = rng.Uniform() * 5.0;
        auto result = batcher.Predict(model, row);
        if (result.prediction != model->forest.Predict(row)) {
          errors.fetch_add(1);
        }
        // Cheap synthetic fits keyed by the live model hash exercise
        // single-flight + LRU under contention.
        auto surrogate = cache.GetOrFit(model->hash, config, [] {
          return std::make_unique<GefExplanation>();
        });
        if (surrogate == nullptr) errors.fetch_add(1);
        if (i % 16 == 0) (void)registry.List();
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  swapper.join();
  EXPECT_EQ(errors.load(), 0);
}

// ---------------------------------------------------------------------
// serve/reactor — the epoll serving core (PR 9), exercised over real
// loopback sockets: keep-alive, pipelining order, idle-timeout
// exactness, 429 load shedding, shutdown drain and multi-shard stress.
// ---------------------------------------------------------------------

using serve::BoundedRequestQueue;
using serve::Completion;
using serve::CompletionQueue;
using serve::ParsedRequest;
using serve::Reactor;

TEST(BoundedRequestQueueTest, CapacityShedAndDrainSemantics) {
  BoundedRequestQueue queue(2);
  ParsedRequest item;
  EXPECT_TRUE(queue.TryPush(item));
  EXPECT_TRUE(queue.TryPush(item));
  EXPECT_FALSE(queue.TryPush(item)) << "full queue must shed";

  std::vector<ParsedRequest> out;
  EXPECT_TRUE(queue.PopAll(&out));
  EXPECT_EQ(out.size(), 2u) << "PopAll hands over every pending item";

  EXPECT_TRUE(queue.TryPush(item));
  queue.Stop();
  EXPECT_FALSE(queue.TryPush(item)) << "stopped queue admits nothing";
  EXPECT_TRUE(queue.PopAll(&out))
      << "items admitted before Stop() still drain";
  EXPECT_EQ(out.size(), 1u);
  EXPECT_FALSE(queue.PopAll(&out)) << "stopped AND empty ends workers";
  EXPECT_EQ(queue.DepthHighWater(), 2u);
}

TEST(BoundedRequestQueueTest, PopAllBlocksUntilPushThenStopReleases) {
  BoundedRequestQueue queue(4);
  std::vector<ParsedRequest> got;
  std::thread consumer([&] {
    std::vector<ParsedRequest> out;
    while (queue.PopAll(&out)) {
      for (auto& item : out) got.push_back(std::move(item));
    }
  });
  ParsedRequest item;
  item.seq = 7;
  ASSERT_TRUE(queue.TryPush(std::move(item)));
  queue.Stop();
  consumer.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].seq, 7u);
}

TEST(CompletionQueueTest, PostSignalsOnlyOnEmptyToNonEmpty) {
  CompletionQueue queue;
  Completion completion;
  EXPECT_TRUE(queue.Post(completion))
      << "empty->non-empty must request an eventfd kick";
  EXPECT_FALSE(queue.Post(completion))
      << "further posts piggyback on the pending kick";
  std::vector<Completion> out;
  queue.DrainInto(&out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(queue.Post(completion)) << "drained queue kicks again";
}

/// Minimal blocking HTTP/1.1 client for driving the reactor over a real
/// socket: raw byte sends (for pipelined bursts) and full-response
/// reads with a receive timeout, so a server bug fails an assertion
/// instead of hanging the suite.
class TestClient {
 public:
  ~TestClient() { Close(); }

  bool Connect(int port, int recv_timeout_ms = 10000) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{};
    tv.tv_sec = recv_timeout_ms / 1000;
    tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) == 0;
  }

  bool SendRaw(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads exactly one response (keep-alive aware via Content-Length).
  bool ReadResponse(int* status, std::string* headers,
                    std::string* body) {
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) ==
           std::string::npos) {
      if (!Fill()) return false;
    }
    *headers = buffer_.substr(0, header_end);
    *status = std::atoi(headers->c_str() + 9);  // "HTTP/1.1 NNN"
    const size_t cl = headers->find("Content-Length:");
    if (cl == std::string::npos) return false;
    const size_t length =
        static_cast<size_t>(std::atol(headers->c_str() + cl + 15));
    const size_t total = header_end + 4 + length;
    while (buffer_.size() < total) {
      if (!Fill()) return false;
    }
    *body = buffer_.substr(header_end + 4, length);
    buffer_.erase(0, total);
    return true;
  }

  /// recv()s until EOF; true when the server closed the connection
  /// within the receive timeout (leftover bytes are discarded).
  bool WaitForClose() {
    char tmp[1024];
    for (;;) {
      const ssize_t n = recv(fd_, tmp, sizeof(tmp), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

  void Close() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
  }

 private:
  bool Fill() {
    char tmp[4096];
    const ssize_t n = recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buffer_.append(tmp, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

std::string HttpRequestText(const std::string& method,
                            const std::string& target,
                            const std::string& body) {
  std::string out = method + " " + target + " HTTP/1.1\r\nHost: t\r\n";
  if (!body.empty() || method == "POST") {
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

/// One /metrics round trip on `client` (keep-alive); the value of the
/// named counter/gauge, or -1.0 when absent.
double ScrapeMetric(TestClient* client, const std::string& name) {
  if (!client->SendRaw(HttpRequestText("GET", "/metrics", ""))) {
    return -1.0;
  }
  int status = 0;
  std::string headers, body;
  if (!client->ReadResponse(&status, &headers, &body) || status != 200) {
    return -1.0;
  }
  const std::string needle = name + " ";
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    if (body.compare(pos, needle.size(), needle) == 0) {
      return std::strtod(body.c_str() + pos + needle.size(), nullptr);
    }
    pos = eol + 1;
  }
  return -1.0;
}

/// Polls /metrics until `name` reaches `at_least` — the deterministic
/// way to wait for "the worker has entered the handler" (counters
/// increment at handler entry) without sleeping for a guessed duration.
::testing::AssertionResult WaitForMetric(TestClient* client,
                                         const std::string& name,
                                         double at_least,
                                         int timeout_ms = 20000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  double last = -1.0;
  while (std::chrono::steady_clock::now() < deadline) {
    last = ScrapeMetric(client, name);
    if (last >= at_least) return ::testing::AssertionSuccess();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return ::testing::AssertionFailure()
         << name << " never reached " << at_least << " (last " << last
         << ")";
}

class ReactorServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::metrics::ResetAllForTest();
    InstallShutdownHandler();
    EnableDrainMode();
    internal::ResetShutdownStateForTest();
    ASSERT_TRUE(registry_.AddModel("census", TrainSmallForest()).ok());
    num_features_ = registry_.Get("census")->forest.num_features();
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
      server_.reset();
    }
    if (batcher_ != nullptr) batcher_->Stop();
    // Reactor::Stop() raises the process-wide shutdown flag; clear
    // it so the next test's server starts serving instead of draining.
    internal::ResetShutdownStateForTest();
  }

  void StartServer(Reactor::Options options,
                   RequestBatcher::Options batch_options = {},
                   GefConfig config = TinyGefConfig()) {
    batcher_ = std::make_unique<RequestBatcher>(batch_options);
    context_.registry = &registry_;
    context_.cache = &cache_;
    context_.batcher = batcher_.get();
    context_.default_config = config;
    server_ = std::make_unique<Reactor>(context_, std::move(options));
    ASSERT_TRUE(server_->Start().ok());
  }

  std::vector<double> Row(double fill) const {
    return std::vector<double>(num_features_, fill);
  }

  /// A config whose surrogate fit takes long enough to hold a worker
  /// busy while the test probes the server's behaviour around it.
  GefConfig SlowConfig() const {
    GefConfig config = TinyGefConfig();
    config.num_univariate = 3;
    config.num_samples = 60000;
    config.k = 32;
    config.spline_basis = 12;
    return config;
  }

  ModelRegistry registry_;
  SurrogateCache cache_{4};
  std::unique_ptr<RequestBatcher> batcher_;
  ServeContext context_;
  std::unique_ptr<Reactor> server_;
  size_t num_features_ = 0;
};

TEST_F(ReactorServeTest, ServesKeepAliveRequestsOverRealSocket) {
  Reactor::Options options;
  options.num_shards = 1;
  StartServer(options);

  TestClient client;
  ASSERT_TRUE(client.Connect(server_->bound_port()));
  int status = 0;
  std::string headers, body;
  ASSERT_TRUE(client.SendRaw(HttpRequestText("GET", "/healthz", "")));
  ASSERT_TRUE(client.ReadResponse(&status, &headers, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("ok"), std::string::npos);

  // Same connection (keep-alive) serves a predict whose prediction is
  // bit-identical to the in-process forest.
  const std::vector<double> row = Row(0.5);
  ASSERT_TRUE(client.SendRaw(HttpRequestText(
      "POST", "/v1/predict",
      "{\"row\":" + JsonNumberArray(row) + "}")));
  ASSERT_TRUE(client.ReadResponse(&status, &headers, &body));
  ASSERT_EQ(status, 200) << body;
  const std::string expected =
      "\"prediction\":" +
      JsonNumberText(registry_.Get("census")->forest.Predict(row)) +
      "}";
  EXPECT_NE(body.find(expected), std::string::npos) << body;
}

TEST_F(ReactorServeTest, PipelinedResponsesReturnInRequestOrder) {
  Reactor::Options options;
  options.num_shards = 1;
  // Two workers make out-of-order completion possible; the connection
  // must still release responses in request order.
  options.workers_per_shard = 2;
  StartServer(options);

  constexpr int kBurst = 6;
  Rng rng(42);
  std::string burst;
  std::vector<std::string> expected;
  for (int i = 0; i < kBurst; ++i) {
    std::vector<double> row(num_features_);
    for (auto& v : row) v = rng.Uniform() * 5.0;
    const std::string body =
        "{\"row\":" + JsonNumberArray(row) + "}";
    burst += HttpRequestText("POST", "/v1/predict", body);
    // The reactor must transport the handler's output byte-for-byte.
    HttpRequest direct;
    direct.method = "POST";
    direct.target = "/v1/predict";
    direct.version = "HTTP/1.1";
    direct.body = body;
    expected.push_back(HandleRequest(context_, direct).body);
  }

  TestClient client;
  ASSERT_TRUE(client.Connect(server_->bound_port()));
  ASSERT_TRUE(client.SendRaw(burst));
  for (int i = 0; i < kBurst; ++i) {
    int status = 0;
    std::string headers, body;
    ASSERT_TRUE(client.ReadResponse(&status, &headers, &body))
        << "response " << i;
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, expected[i])
        << "response " << i << " reordered or altered";
  }
}

// With the micro-batcher disabled, canonical predicts stage on the
// shard and score in one PredictRawRows sweep per dispatch round. The
// burst path must produce the exact bytes the generic handler would:
// same scanner, same model resolution, same sigmoid, same formatting.
TEST_F(ReactorServeTest, BurstBatchedPredictsMatchDirectHandlerByteForByte) {
  Reactor::Options options;
  options.num_shards = 1;
  options.workers_per_shard = 1;
  RequestBatcher::Options batching;
  batching.enabled = false;  // predicts take the inline burst path
  StartServer(options, batching);

  constexpr int kBurst = 24;
  Rng rng(7);
  std::string burst;
  std::vector<std::string> expected;
  for (int i = 0; i < kBurst; ++i) {
    std::vector<double> row(num_features_);
    for (auto& v : row) v = rng.Uniform() * 5.0;
    // Alternate the two canonical shapes so named and implied model
    // lookups land in the same staged sweep.
    const std::string row_json = JsonNumberArray(row);
    const std::string body =
        i % 2 == 0 ? "{\"row\":" + row_json + "}"
                   : "{\"model\":\"census\",\"row\":" + row_json + "}";
    burst += HttpRequestText("POST", "/v1/predict", body);
    HttpRequest direct;
    direct.method = "POST";
    direct.target = "/v1/predict";
    direct.version = "HTTP/1.1";
    direct.body = body;
    expected.push_back(HandleRequest(context_, direct).body);
  }

  TestClient client;
  ASSERT_TRUE(client.Connect(server_->bound_port()));
  ASSERT_TRUE(client.SendRaw(burst));
  for (int i = 0; i < kBurst; ++i) {
    int status = 0;
    std::string headers, body;
    ASSERT_TRUE(client.ReadResponse(&status, &headers, &body))
        << "response " << i;
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, expected[i]) << "response " << i << " diverged";
  }
  // Every predict was answered and at least one sweep actually
  // coalesced rows (the whole burst arrives in one or two dispatch
  // rounds, far above the 2-row bar).
  EXPECT_GE(ScrapeMetric(&client, "serve.requests.predict"), kBurst);
  EXPECT_GE(ScrapeMetric(&client, "serve.predict.burst_rows.max"), 2.0);
}

TEST_F(ReactorServeTest, IdleKeepAliveClosesWithinReadTimeoutPlusTick) {
  Reactor::Options options;
  options.num_shards = 1;
  options.read_timeout_ms = 300;
  options.tick_ms = 100;
  StartServer(options);

  TestClient client;
  ASSERT_TRUE(client.Connect(server_->bound_port()));
  int status = 0;
  std::string headers, body;
  ASSERT_TRUE(client.SendRaw(HttpRequestText("GET", "/healthz", "")));
  ASSERT_TRUE(client.ReadResponse(&status, &headers, &body));
  ASSERT_EQ(status, 200);

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.WaitForClose())
      << "idle keep-alive connection was never closed";
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  // Deadline is read_timeout_ms, enforced to tick granularity: the
  // close must land after the timeout but within timeout + one tick
  // (plus generous scheduling slack for sanitizer CI).
  EXPECT_GE(elapsed_ms, 250.0) << "closed before the idle deadline";
  EXPECT_LE(elapsed_ms, 1500.0) << "timer wheel fired far too late";

  TestClient prober;
  ASSERT_TRUE(prober.Connect(server_->bound_port()));
  EXPECT_GE(ScrapeMetric(&prober, "serve.timeouts"), 1.0);
}

TEST_F(ReactorServeTest, OverloadShedsWith429AndRetryAfter) {
  Reactor::Options options;
  options.num_shards = 1;
  options.workers_per_shard = 1;
  options.queue_capacity = 1;
  StartServer(options, RequestBatcher::Options{}, SlowConfig());
  const int port = server_->bound_port();

  // Occupy the only worker with a surrogate fit.
  const std::string explain_body =
      "{\"row\":" + JsonNumberArray(Row(0.5)) + "}";
  TestClient explainer;
  ASSERT_TRUE(explainer.Connect(port, 120000));
  ASSERT_TRUE(explainer.SendRaw(
      HttpRequestText("POST", "/v1/explain", explain_body)));

  // GETs run inline on the shard thread, so /metrics stays reachable
  // while the worker is busy; wait until the fit is actually running.
  TestClient prober;
  ASSERT_TRUE(prober.Connect(port));
  ASSERT_TRUE(WaitForMetric(&prober, "serve.requests.explain", 1.0));

  // Burst 4 predicts on separate connections: batching is on, so each
  // must queue — capacity 1 admits exactly one, the rest shed with an
  // immediate 429 + Retry-After while the admitted one waits its turn.
  constexpr int kBurstConns = 4;
  std::vector<std::unique_ptr<TestClient>> burst;
  for (int i = 0; i < kBurstConns; ++i) {
    auto client = std::make_unique<TestClient>();
    ASSERT_TRUE(client->Connect(port, 120000));
    ASSERT_TRUE(client->SendRaw(HttpRequestText(
        "POST", "/v1/predict",
        "{\"row\":" + JsonNumberArray(Row(0.25)) + "}")));
    burst.push_back(std::move(client));
  }

  // The server stays responsive under overload: health checks answer
  // inline while every worker slot and queue slot is taken.
  int status = 0;
  std::string headers, body;
  ASSERT_TRUE(prober.SendRaw(HttpRequestText("GET", "/healthz", "")));
  ASSERT_TRUE(prober.ReadResponse(&status, &headers, &body));
  EXPECT_EQ(status, 200);

  int served = 0;
  int shed = 0;
  for (int i = 0; i < kBurstConns; ++i) {
    ASSERT_TRUE(burst[i]->ReadResponse(&status, &headers, &body))
        << "burst connection " << i;
    if (status == 200) {
      ++served;
    } else {
      ASSERT_EQ(status, 429) << body;
      EXPECT_NE(headers.find("Retry-After:"), std::string::npos)
          << headers;
      ++shed;
    }
  }
  EXPECT_EQ(served, 1) << "queue capacity 1 admits exactly one request";
  EXPECT_EQ(shed, kBurstConns - 1);

  // The explain itself completes once the fit finishes.
  ASSERT_TRUE(explainer.ReadResponse(&status, &headers, &body));
  EXPECT_EQ(status, 200) << body;

  EXPECT_GE(ScrapeMetric(&prober, "serve.shed"),
            static_cast<double>(kBurstConns - 1));
}

TEST_F(ReactorServeTest, DrainDeliversInFlightResponseThenCloses) {
  Reactor::Options options;
  options.num_shards = 1;
  StartServer(options, RequestBatcher::Options{}, SlowConfig());
  const int port = server_->bound_port();

  // An idle keep-alive connection, to watch it die on drain.
  TestClient idle;
  ASSERT_TRUE(idle.Connect(port));
  int status = 0;
  std::string headers, body;
  ASSERT_TRUE(idle.SendRaw(HttpRequestText("GET", "/healthz", "")));
  ASSERT_TRUE(idle.ReadResponse(&status, &headers, &body));
  ASSERT_EQ(status, 200);

  TestClient explainer;
  ASSERT_TRUE(explainer.Connect(port, 120000));
  ASSERT_TRUE(explainer.SendRaw(HttpRequestText(
      "POST", "/v1/explain",
      "{\"row\":" + JsonNumberArray(Row(0.5)) + "}")));
  TestClient prober;
  ASSERT_TRUE(prober.Connect(port));
  ASSERT_TRUE(WaitForMetric(&prober, "serve.requests.explain", 1.0));

  // SIGTERM-equivalent while the fit is in flight.
  RequestShutdown();

  EXPECT_TRUE(idle.WaitForClose())
      << "idle connections must close immediately on drain";
  ASSERT_TRUE(explainer.ReadResponse(&status, &headers, &body));
  EXPECT_EQ(status, 200) << body;
  EXPECT_NE(headers.find("Connection: close"), std::string::npos)
      << "drain responses must announce the close:\n"
      << headers;
  EXPECT_TRUE(explainer.WaitForClose());
  server_->Wait();  // returns once every shard's connection table empties
}

TEST_F(ReactorServeTest, MultiShardStressWithHotSwapThenDrain) {
  Reactor::Options options;
  options.num_shards = 2;
  options.workers_per_shard = 2;
  StartServer(options);
  const int port = server_->bound_port();

  std::atomic<int> errors{0};
  constexpr int kClients = 4;
  constexpr int kIters = 25;
  constexpr int kBurst = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client;
      if (!client.Connect(port, 60000)) {
        errors.fetch_add(1);
        return;
      }
      Rng rng(900 + static_cast<uint64_t>(c));
      for (int i = 0; i < kIters; ++i) {
        std::string burst;
        for (int b = 0; b < kBurst; ++b) {
          std::vector<double> row(num_features_);
          for (auto& v : row) v = rng.Uniform() * 5.0;
          burst += HttpRequestText(
              "POST", "/v1/predict",
              "{\"row\":" + JsonNumberArray(row) + "}");
        }
        if (!client.SendRaw(burst)) {
          errors.fetch_add(1);
          return;
        }
        for (int b = 0; b < kBurst; ++b) {
          int status = 0;
          std::string headers, body;
          if (!client.ReadResponse(&status, &headers, &body) ||
              status != 200 ||
              body.find("\"prediction\":") == std::string::npos) {
            errors.fetch_add(1);
            return;
          }
        }
      }
    });
  }

  // Hot-swap the served model while the pipelined traffic flows.
  Forest swap_a = TrainSmallForest(7);
  Forest swap_b = TrainSmallForest(8);
  for (int round = 0; round < 10; ++round) {
    Forest copy = (round % 2 == 0) ? swap_a : swap_b;
    if (!registry_.AddModel("census", std::move(copy)).ok()) {
      errors.fetch_add(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(errors.load(), 0);

  // Drain with a live keep-alive connection still open.
  TestClient lingering;
  ASSERT_TRUE(lingering.Connect(port));
  int status = 0;
  std::string headers, body;
  ASSERT_TRUE(lingering.SendRaw(HttpRequestText("GET", "/healthz", "")));
  ASSERT_TRUE(lingering.ReadResponse(&status, &headers, &body));
  ASSERT_EQ(status, 200);
  server_->Stop();
  EXPECT_TRUE(lingering.WaitForClose());
}

// ---------------------------------------------------------------------
// Handler fast path (PR 9): the zero-allocation predict-body scanner
// must be byte-identical to the generic JSON-tree path and must hand
// anything unusual back to it.
// ---------------------------------------------------------------------

TEST_F(HandlersTest, PredictFastScanMatchesGenericParserByteForByte) {
  const std::string canonical = "{\"row\":" + RowLiteral() + "}";
  // An unknown member forces the generic JSON-tree path (the scanner
  // only accepts the exact canonical shape, which the generic parser
  // tolerates plus extras); both must serialize identical responses.
  const std::string generic =
      "{\"row\":" + RowLiteral() + ",\"unknown\":1}";
  auto fast = Call("POST", "/v1/predict", canonical);
  auto slow = Call("POST", "/v1/predict", generic);
  ASSERT_EQ(fast.status, 200) << fast.body;
  ASSERT_EQ(slow.status, 200) << slow.body;
  EXPECT_EQ(fast.body, slow.body);

  const std::string with_model =
      "{\"model\":\"census\",\"row\":" + RowLiteral() + "}";
  auto named = Call("POST", "/v1/predict", with_model);
  ASSERT_EQ(named.status, 200) << named.body;
  EXPECT_EQ(named.body, fast.body);
}

TEST_F(HandlersTest, PredictFastScanRejectsOddBodiesViaGenericPath) {
  // Shapes the scanner must refuse and hand to the strict parser — the
  // status comes from the generic path's existing error handling, so a
  // scanner that wrongly accepted any of these would change the code.
  EXPECT_EQ(Call("POST", "/v1/predict", "{\"row\":[1,2,]}").status, 400);
  EXPECT_EQ(Call("POST", "/v1/predict", "{\"row\":[0x1p3]}").status, 400);
  EXPECT_EQ(Call("POST", "/v1/predict", "{\"row\":[nan]}").status, 400);
  EXPECT_EQ(Call("POST", "/v1/predict", "{\"row\":[inf,-inf]}").status,
            400);
  EXPECT_EQ(Call("POST", "/v1/predict", "{\"row\":[\"a\"],}").status,
            400);

  // Canonical shape and the model's width, but not JSON: a scanner that
  // let one of these through would score it and answer 200.
  const std::string row = RowLiteral();  // "[0.5,0.5,...]"
  ASSERT_EQ(row.compare(0, 9, "[0.5,0.5,"), 0);
  const std::string head = "{\"model\":\"census\",\"row\":[";
  ASSERT_EQ(Call("POST", "/v1/predict", head + row.substr(1) + "}").status,
            200);
  for (const char* number : {"01", "1.", "1.e5", "-01.5", "-.5"}) {
    EXPECT_EQ(Call("POST", "/v1/predict",
                   head + number + row.substr(4) + "}")
                  .status,
              400)
        << number;
  }
  // No comma between two row values, or between the members.
  EXPECT_EQ(
      Call("POST", "/v1/predict", head + "1 2" + row.substr(8) + "}").status,
      400);
  EXPECT_EQ(Call("POST", "/v1/predict",
                 "{\"model\":\"census\" \"row\":" + row + "}")
                .status,
            400);
  // A raw tab inside the model name is not JSON; the escaped name is.
  ASSERT_TRUE(registry_.AddModel("cen\tsus", TrainSmallForest()).ok());
  EXPECT_EQ(Call("POST", "/v1/predict",
                 "{\"model\":\"cen\tsus\",\"row\":" + row + "}")
                .status,
            400);
  EXPECT_EQ(Call("POST", "/v1/predict",
                 "{\"model\":\"cen\\tsus\",\"row\":" + row + "}")
                .status,
            200);
}

// Differential check of the scanner against ParseJson: every mutated
// canonical body the scanner accepts must be JSON whose only members are
// the scanner's model and its row, bit for bit.
TEST_F(HandlersTest, PredictFastScanAcceptsOnlyWhatParseJsonReadsAlike) {
  const char* const kNumbers[] = {"0.5", "-1.25e-3", "12", "0",
                                  "-0",  "3E+2",     "7.0e1"};
  // Bytes that make or break JSON next to numbers, strings and commas.
  const std::string alphabet =
      std::string("0123456789.-+eE ,[]{}:\"\\\t\n\v\f\x01") + "ax" +
      "\x80\xc0\xff";
  Rng rng(2020);
  int accepted = 0;
  for (int trial = 0; trial < 100000; ++trial) {
    std::string body = rng.UniformInt(2) == 0
                           ? "{\"model\":\"census\",\"row\":["
                           : "{\"row\":[";
    const uint64_t width = 1 + rng.UniformInt(4);
    for (uint64_t i = 0; i < width; ++i) {
      if (i != 0) body += rng.UniformInt(3) == 0 ? ", " : ",";
      body += kNumbers[rng.UniformInt(std::size(kNumbers))];
    }
    body += "]}";
    for (uint64_t m = 1 + rng.UniformInt(2); m > 0; --m) {
      const size_t at = rng.UniformInt(body.size());
      const char c = alphabet[rng.UniformInt(alphabet.size())];
      switch (rng.UniformInt(3)) {
        case 0: body[at] = c; break;
        case 1: body.erase(at, 1); break;
        default: body.insert(at, 1, c); break;
      }
    }

    bool have_model = false;
    std::string_view model;
    std::vector<double> row;
    if (!serve::ScanPredictBody(body, &have_model, &model, &row)) {
      continue;
    }
    ++accepted;
    auto parsed = ParseJson(body);
    ASSERT_TRUE(parsed.ok()) << body;
    ASSERT_TRUE(parsed->is_object()) << body;
    EXPECT_EQ(parsed->object.size(), have_model ? 2u : 1u) << body;
    if (have_model) {
      const Json* name = parsed->Find("model");
      ASSERT_TRUE(name != nullptr && name->is_string()) << body;
      EXPECT_EQ(name->str, model) << body;
    }
    const Json* values = parsed->Find("row");
    ASSERT_TRUE(values != nullptr && values->is_array()) << body;
    ASSERT_EQ(values->array.size(), row.size()) << body;
    for (size_t i = 0; i < row.size(); ++i) {
      ASSERT_TRUE(values->array[i].is_number()) << body;
      EXPECT_EQ(std::bit_cast<uint64_t>(values->array[i].number),
                std::bit_cast<uint64_t>(row[i]))
          << body;
    }
  }
  // Enough mutants survive (a whitespace or digit change) for the
  // comparison to mean something.
  EXPECT_GT(accepted, 6000);
}

}  // namespace
}  // namespace gef
