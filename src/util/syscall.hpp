// Thin helpers over raw POSIX calls.
//
// util::retry_eintr wraps a syscall-shaped callable (returns a signed
// count, sets errno) and retries it while it fails with EINTR — a signal
// landing mid-read must never look like a transport failure. Every raw
// ::read/::write/::accept in the serving stack goes through it.
#pragma once

#include <cerrno>
#include <cstring>
#include <string>

#ifdef _WIN32
#include <process.h>
#else
#include <signal.h>
#include <unistd.h>
#endif

namespace sparsetrain::util {

/// Calls `fn` until it returns >= 0 or fails with an errno other than
/// EINTR. Returns the last result (errno preserved on failure).
template <typename Fn>
auto retry_eintr(Fn&& fn) -> decltype(fn()) {
  decltype(fn()) r;
  do {
    r = fn();
  } while (r < 0 && errno == EINTR);
  return r;
}

/// The calling process's id.
inline int process_id() {
#ifdef _WIN32
  return _getpid();
#else
  return static_cast<int>(::getpid());
#endif
}

/// True when a process with id `pid` exists, including one this process
/// may not signal. Windows builds cannot ask and answer false.
inline bool process_alive(int pid) {
#ifdef _WIN32
  (void)pid;
  return false;
#else
  return pid > 0 && (::kill(pid, 0) == 0 || errno == EPERM);
#endif
}

/// Human-readable errno text ("ENOSPC: No space left on device"-ish).
inline std::string errno_text(int err) {
  return std::string(std::strerror(err)) + " (errno " + std::to_string(err) +
         ")";
}

}  // namespace sparsetrain::util
