#include "obs/obs.h"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <vector>

#include "obs/rss.h"
#include "util/file_io.h"
#include "util/json.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace gef {
namespace obs {

namespace internal {
std::atomic<int> g_state{0};
}  // namespace internal

namespace {

using Clock = std::chrono::steady_clock;

enum class Kind : uint8_t { kBegin, kEnd, kCounter, kGauge, kMetric };

// One hot-path record: three stores plus a timestamp. `name` must be a
// string literal (see the header contract).
struct Event {
  Kind kind;
  const char* name;
  uint64_t t_ns;
  double a;  // counter delta / gauge value / metric step
  double b;  // metric value
};

struct ThreadBuffer {
  int tid = 0;
  std::vector<Event> events;
};

// Process-wide state. A deliberately leaked singleton: worker threads
// (whose thread-locals reference the registry) may outlive static
// destruction order, so the registry must never be destroyed.
struct Registry {
  Mutex mutex;
  // Buffer *contents* (ThreadBuffer::events) are deliberately not
  // guarded: each buffer is written lock-free by its owning thread, and
  // Flush() reads them only after the fork-join barrier of the last
  // parallel region has parked every writer (the header contract). The
  // mutex guards the registration vector and the flush-side state.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers
      GEF_GUARDED_BY(mutex);
  std::string path GEF_GUARDED_BY(mutex);
  // Read lock-free by NowNs() on every hot-path record; written only by
  // Enable(), which callers run before any instrumented parallelism.
  Clock::time_point epoch = Clock::now();
  int flush_seq GEF_GUARDED_BY(mutex) = 0;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // NOLINT(gef-naked-new)
  return *registry;
}

// The calling thread's buffer; registered with the registry on first
// use. The registry holds a second shared_ptr, so events survive thread
// exit until the next Flush().
ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto fresh = std::make_shared<ThreadBuffer>();
    fresh->events.reserve(256);
    Registry& registry = GetRegistry();
    MutexLock lock(registry.mutex);
    fresh->tid = static_cast<int>(registry.buffers.size());
    registry.buffers.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - GetRegistry().epoch)
          .count());
}

double ToMicros(uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

// The fields every named trace line starts with, up to `"t_us":...`.
std::string EventHead(const char* type, const char* name, int tid,
                      uint64_t t_ns) {
  return std::string("{\"type\":\"") + type + "\",\"name\":\"" +
         JsonEscapeString(name) + "\",\"tid\":" + std::to_string(tid) +
         ",\"t_us\":" + JsonNumberText(ToMicros(t_ns));
}

}  // namespace

namespace internal {

bool ResolveEnabled() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  int state = g_state.load(std::memory_order_relaxed);
  if (state != 0) return state == 2;  // lost the resolution race
  const char* env = std::getenv("GEF_TRACE");
  if (env != nullptr && env[0] != '\0') {
    registry.path = env;
    g_state.store(2, std::memory_order_relaxed);
    // Binaries that never call Flush() themselves (benches, CLIs run
    // with GEF_TRACE set) still get their trace written at exit.
    std::atexit([] { Flush(); });
    return true;
  }
  g_state.store(1, std::memory_order_relaxed);
  return false;
}

void SpanBegin(const char* name) {
  LocalBuffer().events.push_back(
      {Kind::kBegin, name, NowNs(), 0.0, 0.0});
}

void SpanEnd() {
  LocalBuffer().events.push_back(
      {Kind::kEnd, nullptr, NowNs(), 0.0, 0.0});
}

void RecordCounter(const char* name, double delta) {
  LocalBuffer().events.push_back(
      {Kind::kCounter, name, NowNs(), delta, 0.0});
}

void RecordGauge(const char* name, double value) {
  LocalBuffer().events.push_back(
      {Kind::kGauge, name, NowNs(), value, 0.0});
}

void RecordMetric(const char* name, double step, double value) {
  LocalBuffer().events.push_back(
      {Kind::kMetric, name, NowNs(), step, value});
}

}  // namespace internal

void Enable(const std::string& path) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  registry.path = path;
  registry.epoch = Clock::now();
  for (auto& buffer : registry.buffers) buffer->events.clear();
  internal::g_state.store(2, std::memory_order_relaxed);
}

void Disable() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  internal::g_state.store(1, std::memory_order_relaxed);
  registry.path.clear();
  for (auto& buffer : registry.buffers) buffer->events.clear();
}

Aggregates Flush() {
  Aggregates out;
  if (!Enabled()) return out;
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);

  out.peak_rss_bytes = PeakRssBytes();

  // The trace lines of this flush, appended to the trace file in one write.
  std::ostringstream text;
  const bool write_file = !registry.path.empty();
  const uint64_t flush_ns = NowNs();
  if (write_file) {
    text << "{\"type\":\"flush\",\"seq\":" << registry.flush_seq
         << ",\"t_us\":" << JsonNumberText(ToMicros(flush_ns))
         << ",\"peak_rss_bytes\":" << out.peak_rss_bytes
         << ",\"current_rss_bytes\":" << CurrentRssBytes() << "}\n";
  }
  ++registry.flush_seq;

  // The gauge that "wins" is the one written last in wall time; gauges
  // are stage-level (single-threaded) so this is deterministic.
  std::map<std::string, uint64_t> gauge_time;

  for (auto& buffer : registry.buffers) {
    // Pairs kBegin/kEnd via a per-thread stack (events are appended in
    // program order per thread). A span still open at flush time is
    // closed at the flush timestamp rather than dropped.
    std::vector<const Event*> open_spans;
    for (const Event& event : buffer->events) {
      switch (event.kind) {
        case Kind::kBegin:
          open_spans.push_back(&event);
          break;
        case Kind::kEnd: {
          if (open_spans.empty()) break;  // began before previous flush
          const Event* begin = open_spans.back();
          open_spans.pop_back();
          SpanStats& stats = out.spans[begin->name];
          ++stats.count;
          stats.total_ns += event.t_ns - begin->t_ns;
          if (write_file) {
            text << EventHead("span", begin->name, buffer->tid,
                              begin->t_ns)
                 << ",\"dur_us\":"
                 << JsonNumberText(ToMicros(event.t_ns - begin->t_ns))
                 << ",\"depth\":" << open_spans.size() << "}\n";
          }
          break;
        }
        case Kind::kCounter:
          out.counters[event.name] += event.a;
          if (write_file) {
            text << EventHead("counter", event.name, buffer->tid,
                              event.t_ns)
                 << ",\"delta\":" << JsonNumberText(event.a) << "}\n";
          }
          break;
        case Kind::kGauge: {
          auto it = gauge_time.find(event.name);
          if (it == gauge_time.end() || event.t_ns >= it->second) {
            gauge_time[event.name] = event.t_ns;
            out.gauges[event.name] = event.a;
          }
          if (write_file) {
            text << EventHead("gauge", event.name, buffer->tid, event.t_ns)
                 << ",\"value\":" << JsonNumberText(event.a) << "}\n";
          }
          break;
        }
        case Kind::kMetric:
          ++out.metric_points[event.name];
          if (write_file) {
            text << EventHead("metric", event.name, buffer->tid,
                              event.t_ns)
                 << ",\"step\":" << JsonNumberText(event.a)
                 << ",\"value\":" << JsonNumberText(event.b) << "}\n";
          }
          break;
      }
    }
    // Close still-open spans at the flush timestamp (stage-level spans
    // should all be closed; this guards misuse).
    while (!open_spans.empty()) {
      const Event* begin = open_spans.back();
      open_spans.pop_back();
      SpanStats& stats = out.spans[begin->name];
      ++stats.count;
      stats.total_ns += flush_ns - begin->t_ns;
      if (write_file) {
        text << EventHead("span", begin->name, buffer->tid, begin->t_ns)
             << ",\"dur_us\":"
             << JsonNumberText(ToMicros(flush_ns - begin->t_ns))
             << ",\"depth\":" << open_spans.size()
             << ",\"open\":true}\n";
      }
    }
    buffer->events.clear();
  }
  if (write_file) {
    // Best effort: an unwritable trace path loses the trace, never the
    // run.
    (void)AppendFile(registry.path, text.str());
  }
  return out;
}

}  // namespace obs
}  // namespace gef
