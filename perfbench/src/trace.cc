#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start = Clock::now();
  span.end = span.start;
  span.parent = current();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end = Clock::now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Add(const char* name, Clock::time_point start,
                 Clock::time_point end, int parent, uint64_t request_id) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.request_id = request_id;
  spans_.push_back(span);
}

namespace {

std::string LayerOf(const char* name) {
  std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  // Children's intervals per parent; concurrent children (overlapping
  // requests of one open-loop phase) are merged before subtraction.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start,
                                                             span.end);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::chrono::duration<double> covered{0};
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    Clock::time_point reach = span.start;
    for (const auto& [start, end] : kids) {
      Clock::time_point from = std::max(start, reach);
      Clock::time_point to = std::min(end, span.end);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    const double total =
        std::chrono::duration<double>(span.end - span.start).count();
    self[LayerOf(span.name)] += std::max(0.0, total - covered.count());
  }
  return self;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(
        out,
        "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
        "\"parent\":%d,\"request_id\":%llu}\n",
        i, span.name,
        std::chrono::duration<double, std::micro>(span.start - origin)
            .count(),
        std::chrono::duration<double, std::micro>(span.end - origin).count(),
        span.parent, static_cast<unsigned long long>(span.request_id));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
