#include "serve/reactor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "forest/compiled.h"
#include "forest/forest.h"
#include "obs/metrics.h"
#include "serve/conn.h"
#include "util/json.h"
#include "util/shutdown.h"

namespace gef {
namespace serve {

namespace {

// epoll_event.data.u64 tokens below kFirstConnId identify the shard's
// own fds; connection ids start above and are never reused.
constexpr uint64_t kListenId = 1;
constexpr uint64_t kWakeId = 2;
constexpr uint64_t kShutdownPipeId = 3;
constexpr uint64_t kFirstConnId = 8;

std::string ShardMetric(int shard, const char* suffix) {
  return "serve.shard" + std::to_string(shard) + "." + suffix;
}

}  // namespace

// --------------------------------------------------------------------
// Queues
// --------------------------------------------------------------------

bool BoundedRequestQueue::TryPush(ParsedRequest item) {
  {
    MutexLock lock(mutex_);
    if (stopped_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    if (items_.size() > depth_hwm_) depth_hwm_ = items_.size();
  }
  cv_.NotifyOne();
  return true;
}

bool BoundedRequestQueue::PopAll(std::vector<ParsedRequest>* out) {
  out->clear();
  MutexLock lock(mutex_);
  while (items_.empty() && !stopped_) cv_.Wait(mutex_);
  if (items_.empty()) return false;  // stopped and fully drained
  out->swap(items_);
  return true;
}

void BoundedRequestQueue::Stop() {
  {
    MutexLock lock(mutex_);
    stopped_ = true;
  }
  cv_.NotifyAll();
}

size_t BoundedRequestQueue::DepthHighWater() {
  MutexLock lock(mutex_);
  return depth_hwm_;
}

bool CompletionQueue::Post(Completion completion) {
  MutexLock lock(mutex_);
  items_.push_back(std::move(completion));
  return items_.size() == 1;  // empty -> non-empty: kick the loop once
}

void CompletionQueue::DrainInto(std::vector<Completion>* out) {
  out->clear();
  MutexLock lock(mutex_);
  out->swap(items_);
}

// --------------------------------------------------------------------
// Shard: one epoll loop, one SO_REUSEPORT listener, its own workers
// --------------------------------------------------------------------

class Reactor::Shard : public RequestSink {
 public:
  Shard(const ServeContext& context, const Reactor::Options& options,
        int index)
      : context_(context),
        options_(options),
        index_(index),
        queue_(options.queue_capacity),
        accepted_(obs::metrics::GetCounter(
            ShardMetric(index, "connections.accepted"))),
        shed_(obs::metrics::GetCounter(ShardMetric(index, "shed"))),
        active_(obs::metrics::GetGauge(
            ShardMetric(index, "connections.active"))),
        queue_hwm_(obs::metrics::GetGauge(
            ShardMetric(index, "queue_depth_hwm"))),
        global_accepted_(
            obs::metrics::GetCounter("serve.connections.accepted")),
        global_shed_(obs::metrics::GetCounter("serve.shed")),
        global_timeouts_(obs::metrics::GetCounter("serve.timeouts")),
        wake_latency_(
            obs::metrics::GetHistogram("serve.reactor.wake_s")),
        predict_requests_(
            obs::metrics::GetCounter("serve.requests.predict")),
        predict_latency_(
            obs::metrics::GetHistogram("serve.latency_s.predict")),
        burst_rows_(
            obs::metrics::GetHistogram("serve.predict.burst_rows")) {}

  ~Shard() override {
    if (listen_fd_ >= 0) close(listen_fd_);
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (event_fd_ >= 0) close(event_fd_);
  }

  /// Creates the shard's SO_REUSEPORT listener. Shard 0 binds the
  /// configured port (possibly 0 = ephemeral); the others bind the
  /// port shard 0 resolved, so the kernel groups them for accept
  /// load-balancing.
  Status Listen(const std::string& address, int port) {
    listen_fd_ =
        socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return Status::Internal(std::string("socket(): ") +
                              std::strerror(errno));
    }
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one,
                   sizeof(one)) != 0) {
      return Status::Internal(std::string("setsockopt(SO_REUSEPORT): ") +
                              std::strerror(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad listen address '" + address +
                                     "'");
    }
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      return Status::Internal("bind(" + address + ":" +
                              std::to_string(port) +
                              "): " + std::strerror(errno));
    }
    if (listen(listen_fd_, 1024) != 0) {
      return Status::Internal(std::string("listen(): ") +
                              std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
      return Status::Internal(std::string("getsockname(): ") +
                              std::strerror(errno));
    }
    bound_port_ = ntohs(bound.sin_port);
    return Status::Ok();
  }

  int bound_port() const { return bound_port_; }

  Status Start(int workers) {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    event_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epoll_fd_ < 0 || event_fd_ < 0) {
      return Status::Internal(std::string("epoll/eventfd: ") +
                              std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered control fds
    ev.data.u64 = kListenId;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
    ev.data.u64 = kWakeId;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);
    // The shutdown self-pipe is shared by every shard and never read:
    // level-triggered POLLIN keeps firing until the shard deregisters
    // it on entering drain.
    ev.data.u64 = kShutdownPipeId;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, ShutdownWakeFd(), &ev);

    const int read_ms = std::max(1, options_.read_timeout_ms);
    const int write_ms = std::max(1, options_.write_timeout_ms);
    tick_ = std::chrono::milliseconds(std::max(1, options_.tick_ms));
    const uint64_t horizon_ticks =
        static_cast<uint64_t>(std::max(read_ms, write_ms)) /
            static_cast<uint64_t>(tick_.count()) +
        2;
    wheel_.assign(std::min<uint64_t>(horizon_ticks, 4096), {});
    wheel_start_ = std::chrono::steady_clock::now();

    loop_thread_ = std::thread([this] { Loop(); });
    workers_.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
    return Status::Ok();
  }

  void JoinLoop() {
    if (loop_thread_.joinable()) loop_thread_.join();
  }

  void StopAndJoinWorkers() {
    queue_.Stop();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

  /// RequestSink: stage for the burst sweep, run inline (fast path),
  /// admit to the queue, or shed with 429.
  void OnRequest(Conn* conn, uint64_t seq, HttpRequest request) override {
    if (!MustQueue(request)) {
      if (TryStagePredict(conn, seq, request)) return;
      HttpResponse response = HandleRequest(context_, request);
      if (request.WantsClose() || ShutdownRequested()) {
        response.close = true;
      }
      conn->Complete(seq, SerializeHttpResponse(response),
                     response.close);
      return;
    }
    ParsedRequest item;
    item.conn_id = conn->id();
    item.seq = seq;
    item.request = std::move(request);
    if (queue_.TryPush(std::move(item))) return;
    // Queue full (or stopping): shed. The connection stays open — a
    // rejected client retries cheaply instead of re-handshaking.
    shed_.Add();
    global_shed_.Add();
    HttpResponse response =
        MakeErrorResponse(429, "server overloaded; retry shortly");
    response.extra_headers.emplace_back("Retry-After", "1");
    conn->Complete(seq, SerializeHttpResponse(response), false);
    // If Complete hit a transport error the read pump notices through
    // the conn's dead state and the event handler destroys it.
  }

 private:
  /// The one dispatch rule. True when the handler may block the calling
  /// thread: explain can fit a surrogate for seconds, and batched
  /// predicts wait out the batch window. Those must run on workers.
  /// Everything else is microseconds and runs to completion on the shard
  /// thread: running it inline saves the two context switches of a hop
  /// to a worker and back, which dominate single-row loopback latency.
  bool MustQueue(const HttpRequest& request) const {
    const std::string& target = request.target;
    if (target.compare(0, 11, "/v1/explain") == 0) return true;
    const bool batching =
        context_.batcher != nullptr && context_.batcher->options().enabled;
    return batching && target.compare(0, 11, "/v1/predict") == 0;
  }

  /// One fast-path predict parsed during the current event-dispatch
  /// round, waiting for the burst sweep. Its row lives in staged_rows_
  /// at row_offset; holding the model snapshot keeps hot-swap
  /// semantics (the request is answered by the model that was current
  /// when it was parsed).
  struct StagedPredict {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    size_t row_offset = 0;
    bool close = false;
    std::shared_ptr<const ServedModel> model;
  };

  /// Burst batching for inline predicts: instead of scoring each
  /// canonical {"row":[...]} request the moment it parses, the shard
  /// stages it and scores everything staged during one epoll dispatch
  /// round in a single PredictRawRows sweep (FlushStagedPredicts). A
  /// pipelined burst or a busy accept round then pays one cache-warm
  /// pass over the compiled node arrays instead of N cold traversals.
  /// Returns false — leaving the request to the ordinary inline path —
  /// for anything but a guaranteed-success canonical predict: the
  /// generic handler owns every error response, so the two paths stay
  /// byte-identical. Only reached when the micro-batcher is disabled
  /// (MustQueue routes predicts to workers otherwise).
  bool TryStagePredict(Conn* conn, uint64_t seq,
                       const HttpRequest& request) {
    if (request.method != "POST" || request.target != "/v1/predict") {
      return false;
    }
    bool have_model = false;
    std::string_view name;
    scan_row_.clear();
    if (!ScanPredictBody(request.body, &have_model, &name, &scan_row_)) {
      return false;
    }
    std::shared_ptr<const ServedModel> model =
        have_model ? context_.registry->Get(std::string(name))
                   : context_.registry->GetOnly();
    if (model == nullptr ||
        scan_row_.size() != model->forest.num_features()) {
      return false;
    }
    StagedPredict staged;
    staged.conn_id = conn->id();
    staged.seq = seq;
    staged.row_offset = staged_rows_.size();
    staged.close = request.WantsClose() || ShutdownRequested();
    staged.model = std::move(model);
    staged_rows_.insert(staged_rows_.end(), scan_row_.begin(),
                        scan_row_.end());
    staged_.push_back(std::move(staged));
    return true;
  }

  /// Scores every staged predict in model-grouped PredictRawRows
  /// sweeps and delivers the responses. Runs once per loop iteration,
  /// right after event dispatch — staged entries never survive across
  /// an epoll_wait, so the batch window adds no artificial latency:
  /// it only coalesces work that arrived in the same readiness round.
  void FlushStagedPredicts(std::chrono::steady_clock::time_point now) {
    if (staged_.empty()) return;
    const auto start = std::chrono::steady_clock::now();
    predictions_.resize(staged_.size());
    // Consecutive entries for the same model snapshot share one sweep;
    // their rows are contiguous in staged_rows_ by construction.
    size_t group = 0;
    while (group < staged_.size()) {
      const ServedModel& model = *staged_[group].model;
      const size_t width = model.forest.num_features();
      size_t group_end = group + 1;
      while (group_end < staged_.size() &&
             staged_[group_end].model.get() == &model) {
        ++group_end;
      }
      model.forest.Compiled().PredictRawRows(
          staged_rows_.data() + staged_[group].row_offset,
          group_end - group, width, predictions_.data() + group);
      if (model.forest.objective() ==
          Objective::kBinaryClassification) {
        // Same transform Forest::Predict applies; PredictRawRows is
        // bit-identical to per-row PredictRaw, so responses match the
        // single-row path byte for byte.
        for (size_t i = group; i < group_end; ++i) {
          predictions_[i] = SigmoidTransform(predictions_[i]);
        }
      }
      group = group_end;
    }
    // Deliver corked so a multi-response connection writes its whole
    // burst in one send(); Complete() cannot fail while corked, and
    // Uncork() below reports dead connections. Connections destroyed
    // earlier in this round simply miss the id lookup.
    touched_.clear();
    for (size_t i = 0; i < staged_.size(); ++i) {
      StagedPredict& item = staged_[i];
      auto it = conns_.find(item.conn_id);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      conn->Cork();
      HttpResponse response;
      response.body = item.model->predict_prefix + "\"prediction\":" +
                      JsonNumberText(predictions_[i]) + "}";
      response.close = item.close;
      conn->Complete(item.seq, SerializeHttpResponse(response),
                     response.close);
      touched_.push_back(item.conn_id);
      predict_requests_.Add();
    }
    for (const uint64_t id : touched_) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // died at its first uncork
      if (!it->second->Uncork()) {
        DestroyConn(it);
      } else {
        RefreshTimer(it->second.get(), now);
      }
    }
    const double per_row_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count() /
        static_cast<double>(staged_.size());
    for (size_t i = 0; i < staged_.size(); ++i) {
      predict_latency_.Observe(per_row_s);
    }
    burst_rows_.Observe(static_cast<double>(staged_.size()));
    staged_.clear();
    staged_rows_.clear();
  }

  void WorkerLoop() {
    std::vector<ParsedRequest> batch;
    while (queue_.PopAll(&batch)) {
      for (ParsedRequest& item : batch) {
        HttpResponse response = HandleRequest(context_, item.request);
        if (item.request.WantsClose() || ShutdownRequested()) {
          response.close = true;
        }
        Completion completion;
        completion.conn_id = item.conn_id;
        completion.seq = item.seq;
        completion.close = response.close;
        completion.bytes = SerializeHttpResponse(response);
        completion.posted = std::chrono::steady_clock::now();
        if (completions_.Post(std::move(completion))) Wake();
      }
    }
  }

  void Wake() {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(event_fd_, &one, sizeof(one));
  }

  void Loop() {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    std::vector<Completion> completions;
    while (true) {
      const int n =
          epoll_wait(epoll_fd_, events, kMaxEvents, NextTimeoutMs());
      if (n < 0 && errno != EINTR) break;
      if (!draining_ && ShutdownRequested()) EnterDrain();
      const auto now = std::chrono::steady_clock::now();
      for (int i = 0; i < std::max(n, 0); ++i) {
        const uint64_t id = events[i].data.u64;
        if (id == kListenId) {
          if (!draining_) AcceptReady(now);
        } else if (id == kWakeId || id == kShutdownPipeId) {
          // kWakeId: cleared + drained below, every iteration.
          // kShutdownPipeId: flag already checked above.
        } else {
          HandleConnEvent(id, events[i].events, now);
        }
      }
      FlushStagedPredicts(now);
      DrainCompletions(&completions, now);
      AdvanceWheel(now);
      if (draining_ && conns_.empty()) break;
    }
  }

  int NextTimeoutMs() {
    const auto now = std::chrono::steady_clock::now();
    const auto next_boundary =
        wheel_start_ + (wheel_tick_ + 1) * tick_;
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
        next_boundary - now);
    return std::clamp<int>(static_cast<int>(wait.count()) + 1, 1,
                           static_cast<int>(tick_.count()));
  }

  void AcceptReady(std::chrono::steady_clock::time_point now) {
    while (true) {
      const int fd = accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;  // EAGAIN: accepted everything pending
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const uint64_t id = next_conn_id_++;
      auto conn = std::make_unique<Conn>(fd, id, options_.limits);
      epoll_event ev{};
      // Registered once for both directions: partial writes wait for
      // the EPOLLOUT edge without any epoll_ctl re-arm on the hot path.
      ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
      ev.data.u64 = id;
      if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        continue;  // conn closes fd on destruction
      }
      RefreshTimer(conn.get(), now);
      conns_.emplace(id, std::move(conn));
      accepted_.Add();
      global_accepted_.Add();
      active_.Set(static_cast<double>(conns_.size()));
    }
  }

  void HandleConnEvent(uint64_t id, uint32_t mask,
                       std::chrono::steady_clock::time_point now) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;  // destroyed earlier in this batch
    Conn* conn = it->second.get();
    bool alive = true;
    if ((mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
      alive = conn->OnReadable(this);
    }
    if (alive && (mask & EPOLLOUT) != 0) {
      alive = conn->OnWritable();
    }
    if (!alive) {
      DestroyConn(it);
    } else {
      RefreshTimer(conn, now);
    }
  }

  void DrainCompletions(std::vector<Completion>* scratch,
                        std::chrono::steady_clock::time_point now) {
    // Clear the eventfd BEFORE draining: a post that lands between the
    // drain and the next epoll_wait leaves the eventfd signaled, so the
    // loop wakes again instead of sleeping on an undrained completion.
    uint64_t counter = 0;
    [[maybe_unused]] ssize_t n =
        read(event_fd_, &counter, sizeof(counter));
    completions_.DrainInto(scratch);
    for (Completion& completion : *scratch) {
      wake_latency_.Observe(
          std::chrono::duration<double>(now - completion.posted).count());
      auto it = conns_.find(completion.conn_id);
      if (it == conns_.end()) continue;  // connection died mid-request
      Conn* conn = it->second.get();
      if (!conn->Complete(completion.seq, std::move(completion.bytes),
                          completion.close)) {
        DestroyConn(it);
      } else {
        RefreshTimer(conn, now);
      }
    }
    scratch->clear();
  }

  void RefreshTimer(Conn* conn,
                    std::chrono::steady_clock::time_point now) {
    conn->RefreshDeadline(
        now, std::chrono::milliseconds(options_.read_timeout_ms),
        std::chrono::milliseconds(options_.write_timeout_ms));
    ArmWheel(conn);
  }

  /// Lazy hashed wheel: at most one pending slot entry per connection;
  /// activity only rewrites the deadline field. A fired entry whose
  /// deadline moved re-inserts itself at the new slot.
  void ArmWheel(Conn* conn) {
    if (conn->in_wheel() || !conn->has_deadline()) return;
    const auto deadline_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            conn->deadline() - wheel_start_)
            .count();
    uint64_t tick_index =
        static_cast<uint64_t>(std::max<int64_t>(deadline_ms, 0)) /
            static_cast<uint64_t>(tick_.count()) +
        1;
    if (tick_index <= wheel_tick_) tick_index = wheel_tick_ + 1;
    wheel_[tick_index % wheel_.size()].push_back(conn->id());
    conn->set_in_wheel(true);
  }

  void AdvanceWheel(std::chrono::steady_clock::time_point now) {
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - wheel_start_)
            .count();
    const uint64_t now_tick = static_cast<uint64_t>(elapsed_ms) /
                              static_cast<uint64_t>(tick_.count());
    while (wheel_tick_ < now_tick) {
      ++wheel_tick_;
      expired_scratch_.swap(wheel_[wheel_tick_ % wheel_.size()]);
      for (const uint64_t id : expired_scratch_) {
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        Conn* conn = it->second.get();
        conn->set_in_wheel(false);
        if (!conn->has_deadline()) continue;  // re-armed on next event
        if (conn->deadline() <= now) {
          global_timeouts_.Add();
          DestroyConn(it);
        } else {
          ArmWheel(conn);  // deadline moved since insertion
        }
      }
      expired_scratch_.clear();
    }
    // Cheap once-per-tick gauge refresh; the queue mutex is quiet.
    queue_hwm_.Set(static_cast<double>(queue_.DepthHighWater()));
  }

  void DestroyConn(
      std::unordered_map<uint64_t, std::unique_ptr<Conn>>::iterator it) {
    // close() in ~Conn drops the fd from the epoll set automatically
    // (no dup'd descriptors exist); stale events in the current batch
    // miss the id lookup and are ignored.
    conns_.erase(it);
    active_.Set(static_cast<double>(conns_.size()));
  }

  void EnterDrain() {
    draining_ = true;
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    close(listen_fd_);
    listen_fd_ = -1;
    // Deregister the (never-read) shutdown pipe so the loop does not
    // busy-wake while connections finish draining.
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, ShutdownWakeFd(), nullptr);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second->idle()) {
        it = conns_.erase(it);
      } else {
        it->second->MarkDrainClose();
        ++it;
      }
    }
    active_.Set(static_cast<double>(conns_.size()));
  }

  const ServeContext& context_;
  const Reactor::Options& options_;
  const int index_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  int bound_port_ = 0;

  BoundedRequestQueue queue_;
  CompletionQueue completions_;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  // Everything below is touched by the shard loop thread only.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = kFirstConnId;
  bool draining_ = false;
  std::chrono::milliseconds tick_{100};
  std::chrono::steady_clock::time_point wheel_start_;
  std::vector<std::vector<uint64_t>> wheel_;
  std::vector<uint64_t> expired_scratch_;
  uint64_t wheel_tick_ = 0;

  // Burst-batching scratch, reused every loop iteration so the hot
  // path never allocates once the buffers reach steady-state size.
  std::vector<StagedPredict> staged_;
  std::vector<double> staged_rows_;  // row-major, contiguous per group
  std::vector<double> scan_row_;
  std::vector<double> predictions_;
  std::vector<uint64_t> touched_;

  obs::metrics::Counter& accepted_;
  obs::metrics::Counter& shed_;
  obs::metrics::Gauge& active_;
  obs::metrics::Gauge& queue_hwm_;
  obs::metrics::Counter& global_accepted_;
  obs::metrics::Counter& global_shed_;
  obs::metrics::Counter& global_timeouts_;
  obs::metrics::Histogram& wake_latency_;
  obs::metrics::Counter& predict_requests_;
  obs::metrics::Histogram& predict_latency_;
  obs::metrics::Histogram& burst_rows_;
};

// --------------------------------------------------------------------
// Reactor
// --------------------------------------------------------------------

Reactor::Reactor(const ServeContext& context, Options options)
    : context_(context), options_(std::move(options)) {}

Reactor::~Reactor() {
  if (started_ && !joined_) Stop();
}

Status Reactor::Start() {
  num_shards_ = options_.num_shards;
  if (num_shards_ <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_shards_ = static_cast<int>(std::clamp(hw, 1u, 4u));
  }
  int workers = options_.workers_per_shard;
  if (workers <= 0) workers = 2;

  shards_.reserve(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    shards_.push_back(std::make_unique<Shard>(context_, options_, s));
    // Shard 0 resolves an ephemeral port; the rest join its group.
    const int port = s == 0 ? options_.port : bound_port_;
    Status listening = shards_[static_cast<size_t>(s)]->Listen(
        options_.address, port);
    if (!listening.ok()) return listening;
    if (s == 0) bound_port_ = shards_[0]->bound_port();
  }
  for (auto& shard : shards_) {
    Status started = shard->Start(workers);
    if (!started.ok()) return started;
  }
  started_ = true;
  return Status::Ok();
}

void Reactor::Wait() {
  if (!started_ || joined_) return;
  for (auto& shard : shards_) shard->JoinLoop();
  for (auto& shard : shards_) shard->StopAndJoinWorkers();
  joined_ = true;
}

void Reactor::Stop() {
  if (!started_) return;
  RequestShutdown();
  Wait();
}

}  // namespace serve
}  // namespace gef
