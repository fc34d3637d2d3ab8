#include "mini_json.h"

#include <cstdlib>
#include <cstring>

namespace perfbench {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool ParseDocument(JsonValue* out) {
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Literal(const char* word) {
    const size_t n = std::strlen(word);
    if (text_.substr(pos_, n) != word) return false;
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      char e = text_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out->push_back(e); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u':
          // Labels and names the benchmark compares are ASCII; keep the
          // escape verbatim rather than decoding UTF-16.
          if (pos_ + 4 > text_.size()) return false;
          out->append("\\u");
          out->append(text_.substr(pos_, 4));
          pos_ += 4;
          break;
        default: return false;
      }
    }
    return false;
  }

  bool ParseNumber(double* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::strchr("+-0123456789.eE", text_[pos_]) != nullptr) {
      ++pos_;
    }
    if (pos_ == start) return false;
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObject;
      if (Consume('}')) return true;
      do {
        std::string key;
        SkipSpace();
        if (!ParseString(&key) || !Consume(':')) return false;
        if (!ParseValue(&out->object[key], depth + 1)) return false;
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::Kind::kArray;
      if (Consume(']')) return true;
      do {
        out->array.emplace_back();
        if (!ParseValue(&out->array.back(), depth + 1)) return false;
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (Literal("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = JsonValue::Kind::kBool;
      return true;
    }
    if (Literal("null")) {
      out->kind = JsonValue::Kind::kNull;
      return true;
    }
    out->kind = JsonValue::Kind::kNumber;
    return ParseNumber(&out->number);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out) {
  *out = JsonValue();
  return Parser(text).ParseDocument(out);
}

}  // namespace perfbench
