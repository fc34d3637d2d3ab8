#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gef {

namespace {

// Length of the well-formed multi-byte UTF-8 sequence that starts at
// text[pos] (a byte >= 0x80), per the table of RFC 3629 §4; 0 when the
// bytes there are not one: a stray continuation byte, the overlong leads
// C0/C1 and E0/F0 forms, an encoded surrogate (ED A0..BF), a code point
// above U+10FFFF (F4 90+, F5..FF) or a sequence cut short. The parser and
// the escaper share this one rule.
size_t Utf8SequenceLength(const std::string& text, size_t pos) {
  const unsigned char lead = static_cast<unsigned char>(text[pos]);
  size_t tail = 0;
  unsigned char lo = 0x80;  // bounds of the byte after the lead
  unsigned char hi = 0xBF;
  if (lead >= 0xC2 && lead <= 0xDF) {
    tail = 1;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    tail = 2;
    if (lead == 0xE0) lo = 0xA0;
    if (lead == 0xED) hi = 0x9F;
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    tail = 3;
    if (lead == 0xF0) lo = 0x90;
    if (lead == 0xF4) hi = 0x8F;
  } else {
    return 0;
  }
  if (tail >= text.size() - pos) return 0;
  for (size_t i = 1; i <= tail; ++i) {
    const unsigned char byte = static_cast<unsigned char>(text[pos + i]);
    if (byte < lo || byte > hi) return 0;
    lo = 0x80;
    hi = 0xBF;
  }
  return tail + 1;
}

class Parser {
 public:
  Parser(const std::string& text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Status Parse(Json* out) {
    Status status = ParseValue(out, 0);
    if (!status.ok()) return status;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters");
    }
    return Status::Ok();
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError(what + " at offset " +
                              std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Status ParseLiteral(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Error(std::string("expected '") + word + "'");
      }
    }
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("control character in string");
      }
      if (static_cast<unsigned char>(c) >= 0x80) {
        if (!ConsumeUtf8(out)) {
          return Error("invalid UTF-8 in string");
        }
        continue;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("bad escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!ParseHex4(&code)) return Error("bad \\u escape");
          if (code >= 0xD800 && code <= 0xDBFF) {
            // A high surrogate must be followed by \u of a low one; the
            // pair encodes one code point above the BMP.
            unsigned low = 0;
            if (text_.compare(pos_, 2, "\\u") != 0) {
              return Error("bad \\u escape");
            }
            pos_ += 2;
            if (!ParseHex4(&low) || low < 0xDC00 || low > 0xDFFF) {
              return Error("bad \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("bad \\u escape");  // lone low surrogate
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    ++pos_;  // closing quote
    return Status::Ok();
  }

  // The rest of one raw multi-byte UTF-8 sequence whose lead byte was
  // just consumed; false when the bytes are not one (Utf8SequenceLength).
  bool ConsumeUtf8(std::string* out) {
    const size_t length = Utf8SequenceLength(text_, pos_ - 1);
    if (length == 0) return false;
    out->append(text_, pos_ - 1, length);
    pos_ += length - 1;
    return true;
  }

  // Four hex digits of a \u escape.
  bool ParseHex4(unsigned* code) {
    if (pos_ + 4 > text_.size()) return false;
    for (int i = 0; i < 4; ++i) {
      char h = text_[pos_++];
      *code <<= 4;
      if (h >= '0' && h <= '9') {
        *code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        *code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        *code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return false;
      }
    }
    return true;
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status ParseNumber(Json* out) {
    const char* begin = text_.data() + pos_;
    const size_t length =
        JsonNumberLength(begin, text_.data() + text_.size());
    if (length == 0) return Error("bad number");
    pos_ += length;
    out->type = Json::Type::kNumber;
    out->number = std::strtod(std::string(begin, length).c_str(), nullptr);
    if (!std::isfinite(out->number)) return Error("number overflow");
    return Status::Ok();
  }

  Status ParseValue(Json* out, int depth) {
    if (depth > max_depth_) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == 'n') {
      out->type = Json::Type::kNull;
      return ParseLiteral("null");
    }
    if (c == 't' || c == 'f') {
      out->type = Json::Type::kBool;
      out->boolean = c == 't';
      return ParseLiteral(c == 't' ? "true" : "false");
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return ParseString(&out->str);
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return Status::Ok();
      }
      while (true) {
        Json element;
        Status status = ParseValue(&element, depth + 1);
        if (!status.ok()) return status;
        out->array.push_back(std::move(element));
        SkipSpace();
        if (pos_ >= text_.size()) return Error("unterminated array");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return Status::Ok();
        }
        return Error("expected ',' or ']'");
      }
    }
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return Status::Ok();
      }
      while (true) {
        SkipSpace();
        std::string key;
        Status status = ParseString(&key);
        if (!status.ok()) return status;
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return Error("expected ':'");
        }
        ++pos_;
        Json value;
        status = ParseValue(&value, depth + 1);
        if (!status.ok()) return status;
        out->object[std::move(key)] = std::move(value);
        SkipSpace();
        if (pos_ >= text_.size()) return Error("unterminated object");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return Status::Ok();
        }
        return Error("expected ',' or '}'");
      }
    }
    return ParseNumber(out);
  }

  const std::string& text_;
  const int max_depth_;
  size_t pos_ = 0;
};

}  // namespace

const Json* Json::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

size_t JsonNumberLength(const char* begin, const char* end) {
  const auto skip_digits = [end](const char* p) {
    while (p < end && *p >= '0' && *p <= '9') ++p;
    return p;
  };
  const char* p = begin;
  if (p < end && *p == '-') ++p;
  const char* digits = p;
  p = skip_digits(p);
  // The integer part is "0" or starts with 1-9.
  if (p == digits || (p - digits > 1 && *digits == '0')) return 0;
  if (p < end && *p == '.') {
    digits = ++p;
    p = skip_digits(p);
    if (p == digits) return 0;
  }
  if (p < end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p < end && (*p == '+' || *p == '-')) ++p;
    digits = p;
    p = skip_digits(p);
    if (p == digits) return 0;
  }
  return static_cast<size_t>(p - begin);
}

StatusOr<Json> ParseJson(const std::string& text, int max_depth) {
  Json out;
  Status status = Parser(text, max_depth).Parse(&out);
  if (!status.ok()) return status;
  return out;
}

std::string JsonEscapeString(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c) & 0xff);
          out += buf;
        } else if (static_cast<unsigned char>(c) < 0x80) {
          out.push_back(c);
        } else if (const size_t length = Utf8SequenceLength(text, i)) {
          out.append(text, i, length);
          i += length - 1;
        } else {
          // Not UTF-8, so no JSON text may carry it raw.
          out += "\\ufffd";
        }
    }
  }
  return out;
}

std::string JsonNumberText(double value) {
  if (!std::isfinite(value)) return "null";
  // 24 bytes hold the longest shortest-form double, e.g.
  // "-2.2250738585072014e-308".
  char buf[32];
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string JsonNumberArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += JsonNumberText(values[i]);
  }
  out += "]";
  return out;
}

}  // namespace gef
