#ifndef GEF_UTIL_FILE_IO_H_
#define GEF_UTIL_FILE_IO_H_

// The repo's one way to read or write a file. Every artifact GEF loads
// or saves — forests, explanations, CSV data and curves, `.gefs` stores,
// obs traces — goes through these three calls, so the write policy lives
// in one place: a saved artifact is replaced atomically, never left
// half-written. Only obs/rss.cc (reads /proc) and store/mmap_file.cc
// (maps a store) open files themselves; gef_lint's gef-raw-file-io rule
// keeps it that way.

#include <string>
#include <string_view>

#include "util/status.h"

namespace gef {

/// The whole file at `path`, byte for byte (no newline translation). An
/// open or read failure is an IoError naming the path.
StatusOr<std::string> ReadFile(const std::string& path);

/// Crash-safe replace: writes `bytes` to `path` + ".tmp" under a
/// ScopedFileGuard (SIGINT/SIGTERM mid-write unlinks it, see
/// util/shutdown.h), retries short writes and EINTR, fsyncs, then
/// rename(2)s over `path`. On any failure the temp file is unlinked and
/// `path` keeps its previous contents (or stays absent). The directory
/// of `path` must let the caller create the temp file beside it.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

/// Appends `bytes` to `path`, creating it if needed (the obs trace
/// sink's JSONL file). Not atomic and not fsync'd: a trace is a log.
Status AppendFile(const std::string& path, std::string_view bytes);

}  // namespace gef

#endif  // GEF_UTIL_FILE_IO_H_
