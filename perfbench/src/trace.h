#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are taken by the
// benchmark around its own calls into each layer's public functions (and
// around each HTTP request it sends), kept in memory and written as JSONL
// once the run ends. A disabled tracer records nothing and costs one
// branch per span.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

struct Span {
  const char* name = "";    // "<layer>.<operation>", a string literal
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;          // index into the span list, -1 for a root
  uint64_t request_id = 0;  // 0 when the span is not one HTTP request
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open span. Returns its
  /// index, or -1 when tracing is off.
  int Begin(const char* name);
  void End(int index);

  /// Records a finished span (the load client's per-request spans) under
  /// `parent`, which must be an open or closed span index or -1.
  void Add(const char* name, Clock::time_point start, Clock::time_point end,
           int parent, uint64_t request_id);

  /// Index of the innermost open span, -1 when none.
  int current() const { return open_.empty() ? -1 : open_.back(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Seconds per layer (the span name's prefix before the first '.')
  /// not covered by the layer's own child spans.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes one JSON object per span. Returns false on an I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
