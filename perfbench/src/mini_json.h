#ifndef PERFBENCH_MINI_JSON_H_
#define PERFBENCH_MINI_JSON_H_

// Minimal JSON reader for the server's responses. The benchmark keeps its
// own so that a change to the server's JSON code cannot change how the
// benchmark checks the server's answers. Numbers are parsed with strtod,
// which reads the server's round-trip %.17g text back to the same double.

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// Member lookup; nullptr when this is not an object or lacks `key`.
  const JsonValue* Find(const std::string& key) const;
};

/// Parses a whole document. Returns false on malformed input.
bool ParseJson(std::string_view text, JsonValue* out);

}  // namespace perfbench

#endif  // PERFBENCH_MINI_JSON_H_
