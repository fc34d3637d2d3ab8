// gef_loadgen — closed- and open-loop load generator for gef_serve.
//
// Closed loop (default): opens N persistent keep-alive connections and
// sends /v1/predict back-to-back for a fixed duration — measures the
// server's capacity, but a slow response slows the offered load too.
//
// Open loop (--open-loop --target-qps N): each connection runs an
// independent Poisson arrival process (their superposition is Poisson
// at the target rate) and every latency sample is measured from the
// request's INTENDED send time, not the actual write. When the server
// (or this client) falls behind, the backlog delay is charged to the
// request — the coordinated-omission correction — so overload shows up
// as a growing tail instead of silently shrinking the offered load.
// 429 load-shed responses are counted separately from errors; latency
// quantiles cover served (200) requests only.
//
// Rows are drawn deterministically from stats/rng (seeded per
// connection) over the feature count discovered via GET /v1/models, so
// runs are reproducible.
//
// Usage:
//   gef_loadgen --port <port> [--host 127.0.0.1] [--connections 4]
//               [--duration-s 5] [--model <name>] [--seed 1]
//               [--open-loop] [--target-qps 1000]
//   gef_loadgen --port <port> --check
//               (smoke mode: one request per endpoint, exit 0 iff all
//                succeed — the serve-smoke ctest uses this instead of curl)
//
// Exit codes: 0 success, 1 bad usage, 2 connection/protocol failure.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "stats/rng.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/string_util.h"

namespace gef {
namespace {

/// Minimal blocking HTTP/1.1 client connection (keep-alive).
class ClientConnection {
 public:
  ~ClientConnection() { Close(); }

  bool Connect(const std::string& host, int port) {
    Close();
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  bool connected() const { return fd_ >= 0; }

  /// Sends one request and blocks for the full response. Returns false
  /// on any transport or protocol failure (connection left closed).
  bool RoundTrip(const std::string& method, const std::string& target,
                 const std::string& body, int* status_out,
                 std::string* body_out) {
    std::string request = method + " " + target + " HTTP/1.1\r\n" +
                          "Host: loadgen\r\n";
    if (!body.empty() || method == "POST") {
      request +=
          "Content-Type: application/json\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n";
    }
    request += "\r\n" + body;
    return RoundTripRaw(request, status_out, body_out);
  }

  /// Hot-path round trip over a pre-serialized request (the timing
  /// loops pre-build their request bytes so the clock measures the
  /// server, not client-side string assembly).
  bool RoundTripRaw(const std::string& request, int* status_out,
                    std::string* body_out) {
    if (!SendAll(request)) {
      Close();
      return false;
    }
    if (!ReadResponse(status_out, body_out)) {
      Close();
      return false;
    }
    return true;
  }

 private:
  bool SendAll(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = send(fd_, bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool FillBuffer() {
    char chunk[8192];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  bool ReadResponse(int* status_out, std::string* body_out) {
    size_t header_end = std::string::npos;
    while ((header_end = buffer_.find("\r\n\r\n")) ==
           std::string::npos) {
      if (buffer_.size() > 64 * 1024) return false;
      if (!FillBuffer()) return false;
    }
    // Status line: HTTP/1.1 NNN Reason
    if (header_end < 12 || buffer_.compare(0, 5, "HTTP/") != 0) {
      return false;
    }
    *status_out = std::atoi(buffer_.c_str() + 9);

    // Header scan without per-line allocation: gef_serve emits
    // canonical capitalization, so one case-sensitive find with a
    // lowercase fallback covers any HTTP/1.1 server.
    size_t content_length = 0;
    size_t cl = buffer_.find("Content-Length:");
    if (cl == std::string::npos || cl > header_end) {
      cl = buffer_.find("content-length:");
    }
    if (cl != std::string::npos && cl < header_end) {
      content_length =
          static_cast<size_t>(std::atol(buffer_.c_str() + cl + 15));
    }
    const size_t body_start = header_end + 4;
    while (buffer_.size() < body_start + content_length) {
      if (!FillBuffer()) return false;
    }
    *body_out = buffer_.substr(body_start, content_length);
    buffer_.erase(0, body_start + content_length);
    return true;
  }

  int fd_ = -1;
  std::string buffer_;  // bytes past the previous response
};

std::string PredictBody(const std::string& model,
                        const std::vector<double>& row) {
  std::string body = "{";
  if (!model.empty()) {
    body += "\"model\":\"" + JsonEscapeString(model) + "\",";
  }
  body += "\"row\":" + JsonNumberArray(row) + "}";
  return body;
}

/// Discovers the feature count of the target model via GET /v1/models.
bool DiscoverFeatures(const std::string& host, int port,
                      const std::string& model, size_t* features) {
  ClientConnection connection;
  if (!connection.Connect(host, port)) return false;
  int status = 0;
  std::string body;
  if (!connection.RoundTrip("GET", "/v1/models", "", &status, &body) ||
      status != 200) {
    return false;
  }
  StatusOr<Json> parsed = ParseJson(body);
  if (!parsed.ok()) return false;
  const Json* models = parsed.value().Find("models");
  if (models == nullptr || !models->is_array()) return false;
  for (const Json& entry : models->array) {
    const Json* name = entry.Find("name");
    const Json* width = entry.Find("features");
    if (width == nullptr || !width->is_number()) continue;
    if (model.empty() || (name != nullptr && name->str == model)) {
      *features = static_cast<size_t>(width->number);
      return true;
    }
  }
  return false;
}

struct WorkerResult {
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;  // 429 responses: load shedding, not failure
  std::vector<double> latencies_s;
};

double Percentile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  const double index = q * static_cast<double>(sorted->size() - 1);
  const size_t lo = static_cast<size_t>(index);
  const size_t hi = lo + 1 < sorted->size() ? lo + 1 : lo;
  const double frac = index - static_cast<double>(lo);
  return (*sorted)[lo] * (1.0 - frac) + (*sorted)[hi] * frac;
}

int RunCheck(const std::string& host, int port,
             const std::string& model, size_t features) {
  ClientConnection connection;
  if (!connection.Connect(host, port)) {
    std::fprintf(stderr, "cannot connect to %s:%d\n", host.c_str(),
                 port);
    return 2;
  }
  int status = 0;
  std::string body;

  if (!connection.RoundTrip("GET", "/healthz", "", &status, &body) ||
      status != 200) {
    std::fprintf(stderr, "healthz failed (status %d)\n", status);
    return 2;
  }
  if (!connection.RoundTrip("GET", "/v1/models", "", &status, &body) ||
      status != 200) {
    std::fprintf(stderr, "models failed (status %d)\n", status);
    return 2;
  }
  Rng rng(1);
  std::vector<double> row(features);
  for (double& v : row) v = rng.Uniform();
  if (!connection.RoundTrip("POST", "/v1/predict",
                            PredictBody(model, row), &status, &body) ||
      status != 200) {
    std::fprintf(stderr, "predict failed (status %d): %s\n", status,
                 body.c_str());
    return 2;
  }
  if (!connection.RoundTrip("POST", "/v1/explain",
                            PredictBody(model, row), &status, &body) ||
      status != 200) {
    std::fprintf(stderr, "explain failed (status %d): %s\n", status,
                 body.c_str());
    return 2;
  }
  // Malformed input must answer 400, not kill the connection.
  if (!connection.RoundTrip("POST", "/v1/predict", "{not json",
                            &status, &body) ||
      status != 400) {
    std::fprintf(stderr, "bad JSON answered %d, want 400\n", status);
    return 2;
  }
  if (!connection.RoundTrip("GET", "/metrics", "", &status, &body) ||
      status != 200 ||
      body.find("serve.requests.predict") == std::string::npos) {
    std::fprintf(stderr, "metrics failed (status %d)\n", status);
    return 2;
  }
  std::printf("check passed (model width %zu)\n", features);
  return 0;
}

int Run(int argc, const char* const* argv) {
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;

  std::string host = flags.GetString("host", "127.0.0.1");
  int port = flags.GetInt("port", 0);
  int connections = flags.GetInt("connections", 4);
  double duration_s = flags.GetDouble("duration-s", 5.0);
  std::string model = flags.GetString("model", "");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  bool check = flags.GetBool("check", false);
  bool open_loop = flags.GetBool("open-loop", false);
  double target_qps = flags.GetDouble("target-qps", 0.0);

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
  if (port <= 0) {
    std::fprintf(stderr, "usage: gef_loadgen --port <port> [options]\n");
    return 1;
  }
  if (connections < 1) {
    std::fprintf(stderr, "--connections must be >= 1\n");
    return 1;
  }
  if (open_loop && target_qps <= 0.0) {
    std::fprintf(stderr, "--open-loop requires --target-qps > 0\n");
    return 1;
  }

  size_t features = 0;
  if (!DiscoverFeatures(host, port, model, &features)) {
    std::fprintf(stderr,
                 "cannot discover model features from %s:%d\n",
                 host.c_str(), port);
    return 2;
  }
  if (check) return RunCheck(host, port, model, features);

  // Pre-serialize the full request bytes: JSON number formatting and
  // header assembly cost more than a loopback round-trip, and paying
  // them inside the timing loop would measure the client, not the
  // server (they share this machine's cores).
  constexpr size_t kBodyPool = 1024;
  std::vector<std::string> requests_pool;
  requests_pool.reserve(kBodyPool);
  {
    Rng rng(seed);
    std::vector<double> row(features);
    for (size_t i = 0; i < kBodyPool; ++i) {
      for (double& v : row) v = rng.Uniform();
      const std::string body = PredictBody(model, row);
      requests_pool.push_back(
          "POST /v1/predict HTTP/1.1\r\nHost: loadgen\r\nContent-Type: "
          "application/json\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body);
    }
  }

  std::vector<WorkerResult> results(
      static_cast<size_t>(connections));
  std::vector<std::thread> workers;
  std::atomic<bool> failed{false};
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(duration_s));

  // Per-connection Poisson rate; the superposition of `connections`
  // independent Poisson processes is Poisson at target_qps.
  const double per_conn_rate =
      open_loop ? target_qps / static_cast<double>(connections) : 0.0;

  for (int c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      WorkerResult& result = results[static_cast<size_t>(c)];
      ClientConnection connection;
      if (!connection.Connect(host, port)) {
        failed.store(true);
        return;
      }
      uint64_t i = static_cast<uint64_t>(c) * 131;
      Rng arrivals(seed * 7919 + static_cast<uint64_t>(c) + 1);
      auto intended = std::chrono::steady_clock::now();
      while (true) {
        if (open_loop) {
          // Exponential inter-arrival gap. The intended schedule never
          // waits for the previous response: when a round trip runs
          // long, the next request fires immediately and its latency
          // sample is charged from the time it SHOULD have been sent.
          const double u = arrivals.Uniform();
          const double gap_s =
              -std::log(1.0 - std::min(u, 0.999999999)) / per_conn_rate;
          intended += std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(gap_s));
          if (intended >= deadline) break;
          std::this_thread::sleep_until(intended);
        } else {
          intended = std::chrono::steady_clock::now();
          if (intended >= deadline) break;
        }
        int status = 0;
        std::string body;
        const bool ok =
            connection.connected() &&
            connection.RoundTripRaw(requests_pool[i % kBodyPool], &status,
                                    &body);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - intended;
        ++i;
        if (!ok) {
          // Reconnect once; a dropped keep-alive counts as an error.
          ++result.errors;
          if (!connection.Connect(host, port)) {
            failed.store(true);
            return;
          }
          continue;
        }
        ++result.requests;
        if (status == 429) {
          ++result.shed;
        } else if (status != 200) {
          ++result.errors;
        } else {
          // Quantiles describe served requests; shed requests are
          // accounted in `shed`, not hidden inside the tail.
          result.latencies_s.push_back(elapsed.count());
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  if (failed.load()) {
    std::fprintf(stderr, "a connection could not be (re)established\n");
    return 2;
  }

  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  std::vector<double> latencies;
  for (WorkerResult& result : results) {
    requests += result.requests;
    errors += result.errors;
    shed += result.shed;
    latencies.insert(latencies.end(), result.latencies_s.begin(),
                     result.latencies_s.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const double qps =
      duration_s > 0 ? static_cast<double>(requests) / duration_s : 0.0;
  const double served_qps =
      duration_s > 0
          ? static_cast<double>(latencies.size()) / duration_s
          : 0.0;
  const double p50_ms = Percentile(&latencies, 0.50) * 1e3;
  const double p90_ms = Percentile(&latencies, 0.90) * 1e3;
  const double p99_ms = Percentile(&latencies, 0.99) * 1e3;
  const double p999_ms = Percentile(&latencies, 0.999) * 1e3;

  std::printf(
      "mode=%s connections=%d duration=%.1fs requests=%llu errors=%llu "
      "shed=%llu\nqps=%.0f served_qps=%.0f p50=%.3fms p90=%.3fms "
      "p99=%.3fms p999=%.3fms\n",
      open_loop ? "open-loop" : "closed-loop", connections, duration_s,
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(shed), qps, served_qps, p50_ms,
      p90_ms, p99_ms, p999_ms);

  if (errors > requests / 100) {
    std::fprintf(stderr, "error rate above 1%%\n");
    return 2;
  }

  return 0;
}

}  // namespace
}  // namespace gef

int main(int argc, char** argv) { return gef::Run(argc, argv); }
