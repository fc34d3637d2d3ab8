#ifndef GEF_UTIL_JSON_H_
#define GEF_UTIL_JSON_H_

// The repo's one JSON implementation: a strict recursive-descent parser
// producing a tagged value tree, the number grammar, and the
// escape/number writers every JSON producer uses — serving responses
// (serve/), the obs JSONL trace (obs/) and the bench reports (tools/).
// Dependency-free by repo policy; request bodies are external input, so
// every malformed byte surfaces as a ParseError Status (mapped to HTTP
// 400 by the handlers), never a crash. The parser follows RFC 8259:
// whitespace is space, tab, LF and CR only, raw string bytes must be
// well-formed UTF-8 (RFC 3629: no stray continuation bytes, truncated or
// overlong sequences, encoded surrogates or code points above U+10FFFF),
// and a \u escape of a UTF-16 surrogate pair decodes to one 4-byte UTF-8
// sequence (a lone surrogate, which has no UTF-8 form, is rejected). So
// every string the parser returns is UTF-8.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace gef {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const Json* Find(const std::string& key) const;
};

/// Parses `text` (entire buffer must be one JSON value). `max_depth`
/// bounds nesting so a deeply nested body cannot blow the stack.
StatusOr<Json> ParseJson(const std::string& text, int max_depth = 64);

/// The one JSON number grammar (RFC 8259:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`): the length of the
/// number token that starts at `begin`, read greedily up to `end`, or 0
/// when those bytes are not a number ("01", "1.", "-.5", "1e", "+1").
/// ParseJson and the serving layer's canonical predict scanner both
/// call it, so they accept the same spellings.
size_t JsonNumberLength(const char* begin, const char* end);

/// Escapes `text` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters as \b \f \n \r \t or \u00XX). Bytes
/// from 0x80 up pass through unchanged.
std::string JsonEscapeString(const std::string& text);

/// Shortest text that reads back to the same double (`std::to_chars`,
/// which picks the shorter of fixed and exponent form, so 120 prints as
/// "120" and 1e22 as "1e+22"). NaN/Inf (not expressible in JSON) render
/// as null.
std::string JsonNumberText(double value);

/// Renders `[v0, v1, ...]`.
std::string JsonNumberArray(const std::vector<double>& values);

}  // namespace gef

#endif  // GEF_UTIL_JSON_H_
