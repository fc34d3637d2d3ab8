#include "serve/http.h"

#include <algorithm>
#include <cctype>

#include "util/json.h"

namespace gef {
namespace serve {

namespace {

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view TrimOws(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && (text[begin] == ' ' || text[begin] == '\t')) {
    ++begin;
  }
  while (end > begin &&
         (text[end - 1] == ' ' || text[end - 1] == '\t')) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool IsTokenChar(char c) {
  // RFC 7230 token characters, enough to reject header smuggling.
  return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
         std::string_view("!#$%&'*+-.^_`|~").find(c) !=
             std::string_view::npos;
}

}  // namespace

bool HttpRequest::WantsClose() const {
  auto it = headers.find("connection");
  if (it != headers.end()) {
    std::string value = ToLower(it->second);
    if (value.find("close") != std::string::npos) return true;
    if (value.find("keep-alive") != std::string::npos) return false;
  }
  return version == "HTTP/1.0";
}

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string SerializeHttpResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    HttpStatusReason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) +
         "\r\n";
  out += response.close ? "Connection: close\r\n"
                        : "Connection: keep-alive\r\n";
  for (const auto& [name, value] : response.extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  out += response.body;
  return out;
}

HttpResponse MakeErrorResponse(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = "{\"error\":\"" + JsonEscapeString(message) + "\"}\n";
  return response;
}

HttpRequestParser::HttpRequestParser(HttpLimits limits)
    : limits_(limits) {}

HttpRequestParser::State HttpRequestParser::Fail(
    int status, const std::string& message) {
  state_ = State::kError;
  error_status_ = status;
  error_message_ = message;
  return state_;
}

HttpRequestParser::State HttpRequestParser::Consume(
    std::string_view bytes) {
  if (state_ != State::kNeedMore) return state_;
  buffer_.append(bytes.data(), bytes.size());
  return TryParse();
}

HttpRequestParser::State HttpRequestParser::Reset() {
  if (state_ != State::kDone) return state_;
  const size_t consumed = header_end_ + body_length_;
  buffer_.erase(0, consumed);
  request_ = HttpRequest();
  header_end_ = 0;
  body_length_ = 0;
  headers_parsed_ = false;
  state_ = State::kNeedMore;
  // Pipelined bytes may already complete the next request.
  return TryParse();
}

HttpRequestParser::State HttpRequestParser::TryParse() {
  if (!headers_parsed_) {
    size_t blank = buffer_.find("\r\n\r\n");
    size_t terminator_len = 4;
    if (blank == std::string::npos) {
      // Tolerate bare-LF clients (telnet-style testing).
      blank = buffer_.find("\n\n");
      terminator_len = 2;
    }
    if (blank == std::string::npos) {
      if (buffer_.size() > limits_.max_header_bytes) {
        return Fail(431, "request headers exceed " +
                             std::to_string(limits_.max_header_bytes) +
                             " bytes");
      }
      return state_;  // kNeedMore
    }
    if (blank + terminator_len > limits_.max_header_bytes + terminator_len) {
      return Fail(431, "request headers exceed " +
                           std::to_string(limits_.max_header_bytes) +
                           " bytes");
    }
    header_end_ = blank + terminator_len;

    // Split the header block into lines on CRLF or LF.
    std::string_view head(buffer_.data(), blank);
    std::vector<std::string_view> lines;
    size_t start = 0;
    while (start <= head.size()) {
      size_t nl = head.find('\n', start);
      std::string_view line = nl == std::string_view::npos
                                  ? head.substr(start)
                                  : head.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') {
        line.remove_suffix(1);
      }
      lines.push_back(line);
      if (nl == std::string_view::npos) break;
      start = nl + 1;
    }
    if (lines.empty() || lines[0].empty()) {
      return Fail(400, "empty request line");
    }

    // Request line: METHOD SP TARGET SP VERSION.
    std::string_view request_line = lines[0];
    size_t sp1 = request_line.find(' ');
    size_t sp2 = sp1 == std::string_view::npos
                     ? std::string_view::npos
                     : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos ||
        sp2 == std::string_view::npos ||
        request_line.find(' ', sp2 + 1) != std::string_view::npos) {
      return Fail(400, "malformed request line");
    }
    request_.method = std::string(request_line.substr(0, sp1));
    request_.target =
        std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
    request_.version = std::string(request_line.substr(sp2 + 1));
    if (request_.method.empty() || request_.target.empty() ||
        request_.target[0] != '/') {
      return Fail(400, "malformed request line");
    }
    for (char c : request_.method) {
      if (!IsTokenChar(c)) return Fail(400, "malformed method");
    }
    if (request_.version != "HTTP/1.1" &&
        request_.version != "HTTP/1.0") {
      return Fail(505, "unsupported HTTP version '" + request_.version +
                           "'");
    }

    // Header fields.
    for (size_t i = 1; i < lines.size(); ++i) {
      std::string_view line = lines[i];
      if (line.empty()) continue;
      size_t colon = line.find(':');
      if (colon == std::string_view::npos || colon == 0) {
        return Fail(400, "malformed header field");
      }
      std::string_view name = line.substr(0, colon);
      for (char c : name) {
        if (!IsTokenChar(c)) return Fail(400, "malformed header name");
      }
      request_.headers[ToLower(name)] =
          std::string(TrimOws(line.substr(colon + 1)));
    }

    if (request_.headers.count("transfer-encoding") != 0) {
      return Fail(501, "transfer-encoding is not supported");
    }
    auto it = request_.headers.find("content-length");
    if (it != request_.headers.end()) {
      const std::string& raw = it->second;
      if (raw.empty() ||
          raw.size() > 12 ||  // > 999 GB is nonsense anyway
          !std::all_of(raw.begin(), raw.end(), [](char c) {
            return std::isdigit(static_cast<unsigned char>(c)) != 0;
          })) {
        return Fail(400, "malformed content-length");
      }
      body_length_ = static_cast<size_t>(std::stoull(raw));
      if (body_length_ > limits_.max_body_bytes) {
        return Fail(413, "request body exceeds " +
                             std::to_string(limits_.max_body_bytes) +
                             " bytes");
      }
    } else {
      body_length_ = 0;
    }
    headers_parsed_ = true;
  }

  if (buffer_.size() < header_end_ + body_length_) {
    return state_;  // kNeedMore
  }
  request_.body = buffer_.substr(header_end_, body_length_);
  state_ = State::kDone;
  return state_;
}

}  // namespace serve
}  // namespace gef
