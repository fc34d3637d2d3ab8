#ifndef GEF_OBS_OBS_H_
#define GEF_OBS_OBS_H_

// Pipeline observability: nestable wall-time spans, named counters /
// gauges / metric series, and a JSONL trace emitter. Every stage of the
// GEF pipeline (Alg. 1: feature selection → domain sampling → D*
// labeling → interaction selection → GAM fit) plus the forest
// trainers and the SHAP/LIME/PDP baselines record through this layer, so
// a trace (GEF_TRACE, perfbench --trace 1) can attribute wall-time and
// memory to stages instead of reporting one end-to-end number.
//
// Cost model, in priority order:
//
//  1. Zero cost when off. Tracing is disabled unless the GEF_TRACE
//     environment variable is set (or a tool calls obs::Enable). Every
//     instrumentation macro starts with one relaxed atomic load and a
//     predictable branch; the disabled path allocates nothing and takes
//     no locks.
//  2. No locks on hot paths. Events append to a per-thread buffer; the
//     process-wide registry mutex is taken only when a thread records
//     its first event and inside Flush().
//  3. Determinism of aggregates. Span counts and counter totals depend
//     only on the instrumented call graph, never on thread count or
//     scheduling (the parallel chunk grid is fixed — see util/parallel.h),
//     so `GEF_NUM_THREADS=1` and `=4` flush identical aggregates.
//
// Names passed to spans/counters/metrics must be string literals (or
// otherwise outlive the next Flush): buffers store the pointer, not a
// copy, to keep the hot-path record a few stores.
//
// Some counters double as *performance contracts*: `gam.gram_builds`
// counts centered Gram constructions (gam/fit_workspace.h), and an
// identity-link Gam::Fit must record exactly one across its entire GCV
// grid and per-term coordinate descent — the hoisting regression test
// (tests/gam_fastpath_test.cc) fails if a code change reintroduces a
// per-candidate rebuild.
//
// Flush() must be called from outside any parallel region: it drains the
// per-thread buffers of the (then parked) pool workers. The fork-join
// barrier of every ParallelFor makes those writes visible to the
// flushing thread.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

namespace gef {
namespace obs {

namespace internal {

// 0 = not yet resolved from the environment, 1 = disabled, 2 = enabled.
extern std::atomic<int> g_state;

// Reads GEF_TRACE once and caches the verdict in g_state.
bool ResolveEnabled();

void SpanBegin(const char* name);
void SpanEnd();
void RecordCounter(const char* name, double delta);
void RecordGauge(const char* name, double value);
void RecordMetric(const char* name, double step, double value);

}  // namespace internal

/// True when tracing is active (GEF_TRACE set or Enable() called).
inline bool Enabled() {
  int state = internal::g_state.load(std::memory_order_relaxed);
  if (state == 0) return internal::ResolveEnabled();
  return state == 2;
}

/// Turns tracing on programmatically. `path` is where Flush() appends
/// JSONL events; an empty path collects in memory only (aggregates are
/// still returned by Flush) — the mode tests use.
void Enable(const std::string& path);

/// Turns tracing off and discards buffered events. Tracing stays off
/// (regardless of GEF_TRACE) until the next Enable() call.
void Disable();

/// Path Flush() writes to ("" when tracing is off or in-memory).
std::string TracePath();

/// Wall-time span; nestable, thread-aware. Construct on the stack around
/// a pipeline stage. When tracing is off the constructor is one atomic
/// load; nothing is recorded.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : active_(Enabled()) {
    if (active_) internal::SpanBegin(name);
  }
  ~ScopedSpan() {
    if (active_) internal::SpanEnd();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
};

/// Adds `delta` to the named counter (summed across threads at flush).
inline void CounterAdd(const char* name, double delta) {
  if (Enabled()) internal::RecordCounter(name, delta);
}

/// Sets the named gauge; at flush the last value written wins. Call
/// gauges from one thread only (stage-level code) — cross-thread "last"
/// is scheduling-dependent and would break aggregate determinism.
inline void GaugeSet(const char* name, double value) {
  if (Enabled()) internal::RecordGauge(name, value);
}

/// Records one point of a metric series (e.g. per-iteration train loss:
/// step = round, value = loss; per-λ GCV: step = λ, value = GCV).
inline void MetricPoint(const char* name, double step, double value) {
  if (Enabled()) internal::RecordMetric(name, step, value);
}

/// Per-span aggregate statistics.
struct SpanStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  double total_seconds() const {
    return static_cast<double>(total_ns) * 1e-9;
  }
};

/// Everything a Flush() drained, keyed by instrumentation name.
struct Aggregates {
  std::map<std::string, SpanStats> spans;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  /// Number of points recorded per metric series.
  std::map<std::string, uint64_t> metric_points;
  uint64_t peak_rss_bytes = 0;

  double SpanSeconds(const std::string& name) const {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_seconds();
  }
  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
};

/// Drains every thread's buffer: appends JSONL events to TracePath()
/// (when non-empty) and returns the aggregates. Buffers restart empty.
/// Must be called outside parallel regions; a no-op returning empty
/// aggregates when tracing is off.
Aggregates Flush();

}  // namespace obs
}  // namespace gef

// Instrumentation macros, runtime-gated as above.
#define GEF_OBS_CONCAT_INNER(a, b) a##b
#define GEF_OBS_CONCAT(a, b) GEF_OBS_CONCAT_INNER(a, b)
#define GEF_OBS_SPAN(name) \
  ::gef::obs::ScopedSpan GEF_OBS_CONCAT(gef_obs_span_, __LINE__)(name)
#define GEF_OBS_COUNTER_ADD(name, delta) \
  ::gef::obs::CounterAdd(name, delta)
#define GEF_OBS_GAUGE_SET(name, value) ::gef::obs::GaugeSet(name, value)
#define GEF_OBS_METRIC(name, step, value) \
  ::gef::obs::MetricPoint(name, step, value)

#endif  // GEF_OBS_OBS_H_
