#include "http_load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <strings.h>

namespace perfbench {

namespace {

// A request with no answer after this long fails (status 0) and its
// connection is replaced.
constexpr double kRequestTimeoutS = 5.0;

int OpenSocket(int port, bool nonblocking) {
  int fd = socket(AF_INET, SOCK_STREAM | (nonblocking ? SOCK_NONBLOCK : 0),
                  0);
  if (fd < 0) return -1;
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    close(fd);
    return -1;
  }
  return fd;
}

// Frames one response at the front of `in`. Returns false when more bytes
// are needed; otherwise fills status/body/close and erases the response.
bool TakeResponse(std::string* in, int* status, std::string* body,
                  bool* close_after) {
  const size_t header_end = in->find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  const std::string_view head(in->data(), header_end);
  long content_length = 0;
  *close_after = false;
  size_t line = head.find("\r\n");
  *status = line != std::string_view::npos && head.size() >= 12
                ? std::atoi(std::string(head.substr(9, 3)).c_str())
                : 0;
  while (line != std::string_view::npos && line < head.size()) {
    const size_t next = head.find("\r\n", line + 2);
    const std::string field(head.substr(
        line + 2, (next == std::string_view::npos ? head.size() : next) -
                      line - 2));
    if (strncasecmp(field.c_str(), "Content-Length:", 15) == 0) {
      content_length = std::atol(field.c_str() + 15);
    } else if (strncasecmp(field.c_str(), "Connection:", 11) == 0 &&
               field.find("close") != std::string::npos) {
      *close_after = true;
    }
    line = next;
  }
  const size_t total = header_end + 4 + static_cast<size_t>(content_length);
  if (in->size() < total) return false;
  body->assign(*in, header_end + 4, static_cast<size_t>(content_length));
  in->erase(0, total);
  return true;
}

}  // namespace

std::string PostRequest(const std::string& target, const std::string& body) {
  return "POST " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

struct LoadClient::Conn {
  int fd = -1;
  const std::string* out = nullptr;  // request being written
  size_t out_offset = 0;
  std::string in;
  bool busy = false;
  bool idle = false;  // in Run()'s idle list
  Completion pending;
};

LoadClient::~LoadClient() { CloseAll(); }

void LoadClient::CloseAll() {
  for (Conn* conn : conns_) {
    if (conn->fd >= 0) close(conn->fd);
    delete conn;
  }
  conns_.clear();
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (timer_fd_ >= 0) close(timer_fd_);
  epoll_fd_ = timer_fd_ = -1;
}

bool LoadClient::Connect(int port, int connections) {
  CloseAll();
  port_ = port;
  epoll_fd_ = epoll_create1(0);
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
  if (epoll_fd_ < 0 || timer_fd_ < 0) return false;
  epoll_event timer_event{};
  timer_event.events = EPOLLIN;
  timer_event.data.ptr = nullptr;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &timer_event) != 0) {
    return false;
  }
  for (int i = 0; i < connections; ++i) {
    Conn* conn = new Conn;
    conns_.push_back(conn);
    conn->fd = OpenSocket(port, /*nonblocking=*/true);
    if (conn->fd < 0) return false;
    epoll_event event{};
    event.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    event.data.ptr = conn;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &event) != 0) {
      return false;
    }
  }
  return true;
}

std::vector<Completion> LoadClient::RunClosed(
    const std::vector<Request>& requests, double seconds) {
  return Run(requests, nullptr, seconds);
}

std::vector<Completion> LoadClient::RunOpen(
    const std::vector<Request>& requests,
    const std::vector<Arrival>& schedule) {
  return Run(requests, &schedule, 0.0);
}

std::vector<Completion> LoadClient::Run(
    const std::vector<Request>& requests,
    const std::vector<Arrival>* schedule, double seconds) {
  std::vector<Completion> result;  // one per request attempted
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  size_t next = 0;  // closed: round-robin request; open: schedule index
  size_t outstanding = 0;
  std::vector<Conn*> idle;

  auto flush = [](Conn* conn) {
    while (conn->out != nullptr) {
      const ssize_t n =
          send(conn->fd, conn->out->data() + conn->out_offset,
               conn->out->size() - conn->out_offset, MSG_NOSIGNAL);
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
      conn->out_offset += static_cast<size_t>(n);
      if (conn->out_offset == conn->out->size()) conn->out = nullptr;
    }
    return true;
  };
  auto finish = [&](Conn* conn, int status, std::string body) {
    conn->pending.status = status;
    conn->pending.body = std::move(body);
    conn->pending.done = Clock::now();
    result.push_back(std::move(conn->pending));
    conn->pending = Completion();
    conn->busy = false;
    --outstanding;
  };
  // Replaces a connection the server closed or that failed.
  auto reopen = [&](Conn* conn) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    close(conn->fd);
    conn->in.clear();
    conn->out = nullptr;
    conn->fd = OpenSocket(port_, /*nonblocking=*/true);
    if (conn->fd < 0) return;
    epoll_event event{};
    event.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    event.data.ptr = conn;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &event);
  };
  auto dispatch = [&](Conn* conn, size_t request, Clock::time_point due) {
    conn->busy = true;
    conn->pending = Completion();
    conn->pending.request_id = next_request_id_++;
    conn->pending.request = request;
    conn->pending.sent = Clock::now();
    conn->pending.due = schedule != nullptr ? due : conn->pending.sent;
    conn->out = &requests[request].wire;
    conn->out_offset = 0;
    ++outstanding;
    if (conn->fd < 0 || !flush(conn)) {
      finish(conn, 0, "");
      reopen(conn);
    }
  };
  auto due_at = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>((*schedule)[i].due_s));
  };
  auto feed = [&](Conn* conn) {
    if (conn->busy || conn->idle) return;
    if (schedule == nullptr) {
      if (Clock::now() < deadline && conn->fd >= 0) {
        dispatch(conn, next++ % requests.size(), Clock::time_point());
        return;
      }
    } else if (next < schedule->size() && conn->fd >= 0 &&
               due_at(next) <= Clock::now()) {
      dispatch(conn, (*schedule)[next].request, due_at(next));
      ++next;
      return;
    }
    conn->idle = true;
    idle.push_back(conn);
  };

  // The server closes keep-alive connections left idle past its read
  // timeout; replace those before sending on them.
  for (Conn* conn : conns_) {
    char probe = 0;
    const ssize_t n = recv(conn->fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      reopen(conn);
    }
  }
  for (Conn* conn : conns_) feed(conn);

  std::vector<epoll_event> events(conns_.size() + 1);
  char buffer[65536];
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (schedule != nullptr) {
      while (!idle.empty() && next < schedule->size() &&
             due_at(next) <= now) {
        Conn* conn = idle.back();
        idle.pop_back();
        conn->idle = false;
        feed(conn);
      }
    }
    const bool more = schedule != nullptr ? next < schedule->size()
                                          : now < deadline;
    if (!more && outstanding == 0) break;

    int timeout_ms = 50;  // wakes to check request timeouts
    if (schedule != nullptr && more && !idle.empty()) {
      itimerspec when{};
      const auto since_epoch = due_at(next).time_since_epoch();
      const auto secs =
          std::chrono::duration_cast<std::chrono::seconds>(since_epoch);
      when.it_value.tv_sec = secs.count();
      when.it_value.tv_nsec =
          std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch -
                                                               secs)
              .count();
      if (when.it_value.tv_sec == 0 && when.it_value.tv_nsec == 0) {
        when.it_value.tv_nsec = 1;
      }
      timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &when, nullptr);
    } else if (schedule == nullptr && more) {
      const double left =
          std::chrono::duration<double, std::milli>(deadline - now).count();
      timeout_ms =
          std::max(1, std::min(timeout_ms, static_cast<int>(left) + 1));
    }

    const int n = epoll_wait(epoll_fd_, events.data(),
                             static_cast<int>(events.size()), timeout_ms);
    for (int e = 0; e < n; ++e) {
      Conn* conn = static_cast<Conn*>(events[e].data.ptr);
      if (conn == nullptr) {
        uint64_t expirations = 0;
        [[maybe_unused]] ssize_t r =
            read(timer_fd_, &expirations, sizeof(expirations));
        continue;
      }
      if ((events[e].events & EPOLLOUT) != 0 && conn->out != nullptr &&
          !flush(conn)) {
        if (conn->busy) finish(conn, 0, "");
        reopen(conn);
        feed(conn);
        continue;
      }
      bool closed = (events[e].events & (EPOLLERR | EPOLLHUP)) != 0;
      for (;;) {
        const ssize_t got = recv(conn->fd, buffer, sizeof(buffer), 0);
        if (got > 0) {
          conn->in.append(buffer, static_cast<size_t>(got));
          continue;
        }
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          closed = true;
        }
        break;
      }
      int status = 0;
      std::string body;
      bool close_after = false;
      if (conn->busy &&
          TakeResponse(&conn->in, &status, &body, &close_after)) {
        finish(conn, status, std::move(body));
        if (close_after) closed = true;
        if (!closed) {
          feed(conn);
          continue;
        }
      }
      if (closed) {
        if (conn->busy) finish(conn, 0, "");
        reopen(conn);
        feed(conn);
      }
    }
    // Requests past their timeout fail; their connections are replaced.
    const Clock::time_point check = Clock::now();
    for (Conn* conn : conns_) {
      if (conn->busy && std::chrono::duration<double>(
                            check - conn->pending.sent)
                                .count() > kRequestTimeoutS) {
        finish(conn, 0, "");
        reopen(conn);
        feed(conn);
      }
    }
  }
  for (Conn* conn : conns_) conn->idle = false;
  itimerspec off{};
  timerfd_settime(timer_fd_, 0, &off, nullptr);
  return result;
}

bool LoadClient::RoundTrip(int port, const std::string& method,
                           const std::string& target,
                           const std::string& body, int* status,
                           std::string* response_body) {
  const int fd = OpenSocket(port, /*nonblocking=*/false);
  if (fd < 0) return false;
  timeval timeout{};
  timeout.tv_sec = 10;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  std::string wire = method + " " + target +
                     " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n";
  if (!body.empty()) {
    wire += "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n";
  }
  wire += "\r\n" + body;
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  std::string in;
  char buffer[65536];
  bool close_after = false;
  for (;;) {
    if (TakeResponse(&in, status, response_body, &close_after)) {
      close(fd);
      return true;
    }
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      close(fd);
      return false;
    }
    in.append(buffer, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
