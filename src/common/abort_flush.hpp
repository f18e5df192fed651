// Abort-time stdio drain.  install_abort_flush() makes SIGABRT flush every
// stdio buffer before the process dies, so output composed through a
// buffered stream (an invariant-failure report, a half-written profile)
// survives a run that aborts mid-epoch.  A normal exit needs nothing extra:
// exit() already flushes every stream.
#pragma once

#include <csignal>
#include <cstdio>

namespace delta {

namespace detail {
/// Drains stdio, then re-raises with the default disposition, so the abort
/// still terminates the process and produces a core.  fflush from a signal
/// handler is not strictly async-signal-safe; this is a best-effort drain
/// on a path that is already fatal.
inline void abort_flush_handler(int sig) {
  std::fflush(nullptr);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}
}  // namespace detail

/// Installs the SIGABRT drain; calling it again is harmless.
inline void install_abort_flush() {
  std::signal(SIGABRT, &detail::abort_flush_handler);
}

}  // namespace delta
