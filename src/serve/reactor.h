#ifndef GEF_SERVE_REACTOR_H_
#define GEF_SERVE_REACTOR_H_

// Non-blocking epoll reactor serving core (DESIGN.md §3.18).
//
// N shards, each a self-contained event loop thread with:
//  * its own SO_REUSEPORT listen socket — the kernel load-balances
//    accepts across shards by flow hash, so there is no shared accept
//    lock, no accept thread, and no cross-shard handoff of fds;
//  * its own epoll instance over the listen socket, the shutdown
//    self-pipe (util/shutdown.h) and every connection it accepted
//    (edge-triggered, EPOLLIN|EPOLLOUT registered once);
//  * a lazy hashed timer wheel enforcing per-connection read/idle and
//    write-progress deadlines to tick granularity;
//  * a bounded request queue drained by the shard's worker threads.
//    Workers run the pure handlers (serve/handlers.h) — which reuse the
//    registry / surrogate cache / micro-batcher exactly as before — and
//    post serialized responses to the shard's completion queue, waking
//    the loop through an eventfd.
//
// Load shedding: when a shard's queue is full the request is answered
// inline with 429 + Retry-After instead of queuing unboundedly. Under
// overload the server keeps its in-flight population bounded — served
// requests keep a bounded p99 and excess demand degrades to cheap,
// explicit rejections instead of collapsing every request's latency.
//
// Ownership/locking model (proved by -Wthread-safety, PR 7):
//  * Connections are single-owner: only the shard thread touches a Conn
//    (serve/conn.h), so connections carry no locks at all.
//  * The only cross-thread state is the pair of queues below, each a
//    small class whose guarded fields are annotated; workers and the
//    shard thread never share anything else.
//
// Shutdown drain (same observable contract as the PR 5 server): the
// signal handler wakes every shard via the self-pipe; shards stop
// accepting, close idle keep-alive connections immediately, let
// in-flight requests finish (close-on-last-response), and exit once
// their connection table is empty; workers drain the queue and exit.

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/handlers.h"
#include "serve/http.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace gef {
namespace serve {

/// One parsed request travelling from a shard to a worker.
struct ParsedRequest {
  uint64_t conn_id = 0;
  uint64_t seq = 0;
  HttpRequest request;
};

/// One finished response travelling from a worker back to its shard.
struct Completion {
  uint64_t conn_id = 0;
  uint64_t seq = 0;
  std::string bytes;  // fully serialized HTTP response
  bool close = false;
  /// Post time, for the loop wake-latency histogram.
  std::chrono::steady_clock::time_point posted;
};

/// Bounded MPMC queue between one shard and its workers. TryPush never
/// blocks — a full queue is the load-shedding signal — and PopAll hands
/// a worker every pending item in one critical section so condvar and
/// eventfd traffic amortize over bursts.
class BoundedRequestQueue {
 public:
  explicit BoundedRequestQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  BoundedRequestQueue(const BoundedRequestQueue&) = delete;
  BoundedRequestQueue& operator=(const BoundedRequestQueue&) = delete;

  /// False when the queue is full (caller sheds) or stopped (caller
  /// sheds too: drain only answers what was admitted before the stop).
  bool TryPush(ParsedRequest item) GEF_EXCLUDES(mutex_);

  /// Blocks until items arrive or Stop(); swaps every pending item into
  /// `*out` (cleared first). False once stopped AND empty — workers
  /// drain admitted requests before exiting.
  bool PopAll(std::vector<ParsedRequest>* out) GEF_EXCLUDES(mutex_);

  void Stop() GEF_EXCLUDES(mutex_);

  /// High-water mark of the queue depth since construction.
  size_t DepthHighWater() GEF_EXCLUDES(mutex_);

  /// Current depth; caller must hold mutex_ (REQUIRES-annotated helper,
  /// negative-compile-tested in tests/thread_safety_negcompile/).
  size_t SizeLocked() const GEF_REQUIRES(mutex_) { return items_.size(); }

 private:
  const size_t capacity_;
  Mutex mutex_;
  CondVar cv_;
  std::vector<ParsedRequest> items_ GEF_GUARDED_BY(mutex_);
  size_t depth_hwm_ GEF_GUARDED_BY(mutex_) = 0;
  bool stopped_ GEF_GUARDED_BY(mutex_) = false;
};

/// Unbounded worker->shard completion channel. Bounded implicitly by
/// the request queue's capacity (a completion exists only for an
/// admitted request). Post() reports whether the shard needs an eventfd
/// kick — only the post that makes the queue non-empty does, so a burst
/// of completions costs one syscall.
class CompletionQueue {
 public:
  CompletionQueue() = default;
  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// True when the caller must write the shard's eventfd.
  bool Post(Completion completion) GEF_EXCLUDES(mutex_);

  /// Swaps every pending completion into `*out` (cleared first).
  void DrainInto(std::vector<Completion>* out) GEF_EXCLUDES(mutex_);

 private:
  Mutex mutex_;
  std::vector<Completion> items_ GEF_GUARDED_BY(mutex_);
};

class Reactor {
 public:
  struct Options {
    std::string address = "127.0.0.1";
    /// 0 = kernel-assigned ephemeral port; read it via bound_port().
    int port = 0;
    /// 0 = auto: min(4, hardware_concurrency).
    int num_shards = 0;
    /// Handler threads per shard; 0 = auto (2). Workers block in the
    /// batcher / surrogate fits, so a couple per shard keep the loop
    /// responsive without oversubscribing the machine.
    int workers_per_shard = 0;
    /// Per-shard bound on parsed-but-not-executed requests; beyond it
    /// the shard sheds with 429 + Retry-After.
    size_t queue_capacity = 256;
    /// Max idle / mid-request wait for request bytes before close.
    int read_timeout_ms = 5000;
    /// Max wait for the client to accept response bytes (refreshed on
    /// every partial write).
    int write_timeout_ms = 5000;
    /// Timer-wheel granularity; deadlines fire within one tick.
    int tick_ms = 100;
    HttpLimits limits;
  };

  /// `context` must outlive the reactor.
  Reactor(const ServeContext& context, Options options);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Binds every shard's SO_REUSEPORT listener, spawns shard + worker
  /// threads. Requires InstallShutdownHandler() + EnableDrainMode().
  Status Start();

  /// Blocks until shutdown has been requested and every shard drained.
  void Wait();

  /// Programmatic shutdown (tests): equivalent to SIGTERM, then Wait().
  void Stop();

  /// The actual listening port (resolves port 0). Valid after Start().
  int bound_port() const { return bound_port_; }

  /// Resolved shard count. Valid after Start().
  int num_shards() const { return num_shards_; }

 private:
  class Shard;

  const ServeContext& context_;
  Options options_;
  int bound_port_ = 0;
  int num_shards_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace serve
}  // namespace gef

#endif  // GEF_SERVE_REACTOR_H_
