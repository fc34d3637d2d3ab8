#ifndef PERFBENCH_HTTP_LOAD_H_
#define PERFBENCH_HTTP_LOAD_H_

// The benchmark's own HTTP/1.1 load client: one thread, one epoll loop,
// a fixed set of keep-alive loopback connections. Closed-loop phases send
// a connection's next request when its previous answer arrives;
// open-loop phases send on a precomputed schedule and time every request
// from the moment it was due, so a stall is charged to the requests it
// delays. Response bodies are kept for checking after the phase, so the
// timed loop does no parsing beyond the HTTP framing.

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Request {
  std::string wire;    // the complete HTTP request bytes
  int kind = 0;        // caller-defined request type
  size_t payload = 0;  // caller-defined index of what was sent
};

/// A request instance of an open-loop schedule: when it is due, relative
/// to the phase start, and which prebuilt request to send.
struct Arrival {
  double due_s = 0.0;
  size_t request = 0;
};

struct Completion {
  uint64_t request_id = 0;
  size_t request = 0;  // index into the phase's request list
  int status = 0;      // HTTP status, 0 when the request failed outright
  std::string body;
  Clock::time_point due;   // open loop: scheduled send; closed: sent
  Clock::time_point sent;
  Clock::time_point done;
};

class LoadClient {
 public:
  LoadClient() = default;
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Opens `connections` keep-alive connections to 127.0.0.1:`port`.
  bool Connect(int port, int connections);

  /// Closed loop over `requests` (taken round-robin) for `seconds`. Every
  /// request sent before the deadline is awaited.
  std::vector<Completion> RunClosed(const std::vector<Request>& requests,
                                    double seconds);

  /// Open loop: `schedule` in due order.
  std::vector<Completion> RunOpen(const std::vector<Request>& requests,
                                  const std::vector<Arrival>& schedule);

  /// One request on its own short-lived connection (health, model list
  /// and metrics probes). Returns false when no answer arrived.
  static bool RoundTrip(int port, const std::string& method,
                        const std::string& target, const std::string& body,
                        int* status, std::string* response_body);

 private:
  struct Conn;
  std::vector<Completion> Run(const std::vector<Request>& requests,
                              const std::vector<Arrival>* schedule,
                              double seconds);
  void CloseAll();

  std::vector<Conn*> conns_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  int port_ = 0;
  uint64_t next_request_id_ = 1;
};

/// "POST <target>" with a JSON body, keep-alive.
std::string PostRequest(const std::string& target, const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_LOAD_H_
