#ifndef GEF_UTIL_SHUTDOWN_H_
#define GEF_UTIL_SHUTDOWN_H_

// Graceful-shutdown plumbing shared by the HTTP server and every
// artifact save. Lives in util/ (the bottom layer) beside the one file
// writer, util/file_io, so every layer's saves are guarded without an
// upward dependency on serve/.
//
// Two problems, one SIGINT/SIGTERM handler:
//
//  * A tool interrupted mid-save must not leave a partially written
//    artifact that later parses as corrupt. WriteFileAtomic
//    (util/file_io.h) writes every artifact to `path.tmp` under a
//    ScopedFileGuard, which registers that temp path in a fixed,
//    async-signal-safe table; the handler unlink()s every registered
//    path before the process exits, so an interrupted save leaves the
//    previous artifact (or nothing) rather than garbage. Commit()
//    removes the guard once the bytes are durable and renamed into
//    place. Tools that save call InstallShutdownHandler() first.
//
//  * The server must drain: stop accepting, finish in-flight requests,
//    then exit 0. EnableDrainMode() switches the handler from
//    "cleanup + _exit" to "set a flag and wake pollers via the
//    self-pipe"; every reactor shard (serve/reactor.h) registers
//    ShutdownWakeFd() in its epoll set beside its listen socket.
//
// Everything the handler touches is lock-free and allocation-free:
// fixed char buffers, atomics, write() to a pre-created pipe, unlink(),
// _exit() — all async-signal-safe. Registration happens on normal
// threads under a mutex; the handler only ever reads slots whose
// `active` flag was released *after* the path bytes were written.

#include <string>

namespace gef {

/// Installs the SIGINT/SIGTERM handler (idempotent, first call wins).
/// Call early in main(), before spawning threads.
void InstallShutdownHandler();

/// True once a shutdown signal arrived (or RequestShutdown was called).
bool ShutdownRequested();

/// The signal number that triggered shutdown (0 when none yet).
int ShutdownSignal();

/// Read end of the self-pipe; poll it for POLLIN to wake on shutdown.
/// Valid after InstallShutdownHandler().
int ShutdownWakeFd();

/// Switches the handler to drain mode: it records the signal and wakes
/// pollers instead of exiting. Without drain mode the handler unlinks
/// guarded files and _exit(128 + sig)s — the right behaviour for batch
/// tools.
void EnableDrainMode();

/// Programmatic trigger with identical observable effects to a signal
/// in drain mode (used by tests and by the server's Stop()).
void RequestShutdown();

/// Registers `path` for unlink-on-signal while in scope. Destruction or
/// Commit() deregisters; Commit() additionally marks the artifact as
/// finished so the destructor never touches it. Guards nest up to a
/// fixed capacity (16); registration past capacity is a no-op (the save
/// still happens, it just loses crash cleanup).
class ScopedFileGuard {
 public:
  explicit ScopedFileGuard(const std::string& path);
  ~ScopedFileGuard();
  ScopedFileGuard(const ScopedFileGuard&) = delete;
  ScopedFileGuard& operator=(const ScopedFileGuard&) = delete;

  /// The write completed; stop guarding.
  void Commit();

 private:
  int slot_ = -1;
};

namespace internal {
/// Unlinks every currently guarded file — the non-signal half of the
/// handler, callable from tests.
void UnlinkGuardedFilesForTest();
/// Test hook: clears the shutdown flag so one binary can run several
/// shutdown scenarios.
void ResetShutdownStateForTest();
}  // namespace internal

}  // namespace gef

#endif  // GEF_UTIL_SHUTDOWN_H_
