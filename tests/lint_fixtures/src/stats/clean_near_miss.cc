// Clean file: every line below is a near-miss that the passes must NOT
// flag. If gef_lint reports anything in this file, a boundary check
// regressed. (Scanned text only — never compiled.)

#include "util/thread_annotations.h"  // downward include: stats -> util

namespace fixture {

// std::mutex in a comment must not trip the hygiene pass.
struct Timer;  // declared elsewhere; exposes time() and clock() members

inline const char* Describe() {
  return "call rand() and grab a std::mutex";  // string literal: blanked
}

inline long Near(const Timer* timer_ptr, const Timer& timer) {
  long timeout_ms = 5;        // identifier containing "time"
  long brand = 7;             // identifier ending in "rand"
  long clocks = brand;        // identifier starting with "clock"
  (void)clocks;
  return timer.time() + timer_ptr->clock() + timeout_ms;  // member calls
}

inline long Buffers() {
  std::ostringstream out;      // in-memory streams are not files
  std::istringstream in("7");
  long value = 0;
  in >> value;
  out << value;
  return value;
}

// TODO(fixture-owner): owned TODOs are fine ("TODOs" is prose, not a marker).

}  // namespace fixture
