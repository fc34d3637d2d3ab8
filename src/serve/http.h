#ifndef GEF_SERVE_HTTP_H_
#define GEF_SERVE_HTTP_H_

// Hand-rolled HTTP/1.1 wire format, decoupled from sockets so the
// parser is unit-testable on in-memory buffers (tests/serve_test.cc
// feeds it truncated, oversized and corrupted byte streams the way
// parser_robustness_test.cc corrupts model files).
//
// The parser is incremental: feed it whatever bytes arrived, it either
// asks for more, completes a request, or fails with the HTTP status
// code the connection should answer before closing. Limits are part of
// the contract — header and body byte caps bound memory per connection
// no matter what a client streams at us.
//
// Scope: exactly what the serving endpoints need. Content-Length bodies
// only (Transfer-Encoding is rejected as 501), no multipart, no
// compression. Requests pipelined back-to-back on one connection are
// handled: bytes past the end of one request stay buffered for the
// next parse cycle.

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gef {
namespace serve {

struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string target;   // "/v1/predict" (query string kept verbatim)
  std::string version;  // "HTTP/1.1"
  /// Header names lower-cased; duplicate headers keep the last value.
  std::map<std::string, std::string> headers;
  std::string body;

  /// True when the client asked to close after this response
  /// ("Connection: close" or an HTTP/1.0 request without keep-alive).
  bool WantsClose() const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Set by handlers or the server to force connection close.
  bool close = false;
  /// Extra response headers appended verbatim (name, value) — e.g.
  /// Retry-After on the 429 load-shed path.
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

struct HttpLimits {
  /// Cap on request line + headers, bytes.
  size_t max_header_bytes = 16 * 1024;
  /// Cap on the declared Content-Length, bytes.
  size_t max_body_bytes = 1 << 20;
};

/// Standard reason phrase for the handful of status codes we emit.
const char* HttpStatusReason(int status);

/// Serializes a response with Content-Length and Connection headers.
std::string SerializeHttpResponse(const HttpResponse& response);

/// Builds the canonical JSON error body {"error": "..."}; the message is
/// escaped with JsonEscapeString (util/json.h).
HttpResponse MakeErrorResponse(int status, const std::string& message);

/// Incremental request parser; one instance per connection.
class HttpRequestParser {
 public:
  enum class State {
    kNeedMore,  // feed more bytes
    kDone,      // request() is complete; call Reset() before reusing
    kError,     // protocol error; error_status()/error_message() say why
  };

  explicit HttpRequestParser(HttpLimits limits = HttpLimits());

  /// Appends `bytes` to the connection buffer and attempts to complete
  /// a request. Returns the resulting state; feeding after kDone or
  /// kError without Reset() is an error kept stable (returns the same
  /// state).
  State Consume(std::string_view bytes);

  State state() const { return state_; }
  const HttpRequest& request() const { return request_; }

  /// Moves the completed request out without copying its body (valid
  /// only in kDone, before Reset(); the reactor's hot path).
  HttpRequest TakeRequest() { return std::move(request_); }

  /// HTTP status the connection should answer on kError (400, 413,
  /// 431, 501, 505).
  int error_status() const { return error_status_; }
  const std::string& error_message() const { return error_message_; }

  /// Clears the completed request and re-parses any pipelined bytes
  /// already buffered past it (so the return value may be kDone again
  /// immediately).
  State Reset();

 private:
  State Fail(int status, const std::string& message);
  State TryParse();

  HttpLimits limits_;
  std::string buffer_;  // unconsumed bytes
  HttpRequest request_;
  State state_ = State::kNeedMore;
  int error_status_ = 0;
  std::string error_message_;
  size_t header_end_ = 0;  // offset just past the blank line
  size_t body_length_ = 0;
  bool headers_parsed_ = false;
};

}  // namespace serve
}  // namespace gef

#endif  // GEF_SERVE_HTTP_H_
