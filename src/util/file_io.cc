#include "util/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>  // rename
#include <cstring>

#include "util/shutdown.h"

namespace gef {
namespace {

Status ErrnoError(const char* what, const std::string& path) {
  const int err = errno;
  return Status::IoError(std::string(what) + " " + path + ": " +
                         std::strerror(err));
}

// Opens `path` for writing with `mode_flags` (O_TRUNC or O_APPEND),
// writes every byte — retrying short writes and EINTR — optionally
// fsyncs, and closes.
Status WriteFd(const std::string& path, int mode_flags,
               std::string_view bytes, bool sync) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | mode_flags | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("cannot create", path);
  Status status;
  size_t written = 0;
  while (status.ok() && written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n >= 0) {
      written += static_cast<size_t>(n);
    } else if (errno != EINTR) {
      status = ErrnoError("write failed for", path);
    }
  }
  if (status.ok() && sync && ::fsync(fd) != 0) {
    status = ErrnoError("fsync failed for", path);
  }
  if (::close(fd) != 0 && status.ok()) {
    status = ErrnoError("close failed for", path);
  }
  return status;
}

}  // namespace

StatusOr<std::string> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("cannot open", path);
  std::string bytes;
  char buffer[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n == 0) break;
    if (n > 0) {
      bytes.append(buffer, static_cast<size_t>(n));
    } else if (errno != EINTR) {
      Status error = ErrnoError("cannot read", path);
      ::close(fd);
      return error;
    }
  }
  ::close(fd);
  return bytes;
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  // Guard the temp file: SIGTERM mid-write unlinks it; `path` is only
  // ever replaced by the atomic rename of complete, fsync'd bytes.
  ScopedFileGuard guard(tmp);
  if (Status s = WriteFd(tmp, O_TRUNC, bytes, /*sync=*/true); !s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status error = ErrnoError("cannot rename", tmp + " to " + path);
    ::unlink(tmp.c_str());
    return error;
  }
  guard.Commit();
  return Status::Ok();
}

Status AppendFile(const std::string& path, std::string_view bytes) {
  return WriteFd(path, O_APPEND, bytes, /*sync=*/false);
}

}  // namespace gef
