// Clang Thread Safety Analysis wrappers.
//
// `common::Mutex` / `common::LockGuard` are drop-in replacements for
// std::mutex / std::lock_guard that carry Clang's capability annotations, so
// a clang build with -Wthread-safety rejects lock-discipline bugs (touching a
// GUARDED_BY member without the lock, double-locking, forgetting to unlock)
// at compile time.  On GCC and other compilers every macro expands to
// nothing and the wrappers cost exactly one std::mutex.
//
// Usage:
//   common::Mutex mu_;
//   std::vector<Event> events_ GUARDED_BY(mu_);
//   void record(Event e) EXCLUDES(mu_) {
//     common::LockGuard lock(mu_);
//     events_.push_back(e);          // OK: lock held.
//   }
//
// The macro names follow the Clang documentation's canonical mutex header so
// the annotations read like the upstream examples.
//
// Scope note: the analysis models *lock* discipline.  The lock-free engine
// primitives in common/parallel.hpp (CyclicBarrier, the WorkerPool, the
// ClaimSet claim flags) and sim/intra's phase counters are std::atomic-based
// and carry their ordering contracts in comments at each load/store site
// instead — there is no capability to annotate, and wrapping them in a fake
// one would silence the analysis where it has nothing to say.  TSan (CI job)
// is the checker that covers that code.
#pragma once

#include <mutex>

#if defined(__clang__)
#define DELTA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DELTA_THREAD_ANNOTATION(x)  // No-op outside clang.
#endif

/// Type-level: the class is a lockable capability ("mutex").
#define CAPABILITY(x) DELTA_THREAD_ANNOTATION(capability(x))
/// Type-level: RAII object that acquires on construction, releases on
/// destruction (std::lock_guard shape).
#define SCOPED_CAPABILITY DELTA_THREAD_ANNOTATION(scoped_lockable)

/// Data members: may only be read/written while holding `x`.
#define GUARDED_BY(x) DELTA_THREAD_ANNOTATION(guarded_by(x))
/// Pointer members: the *pointee* is protected by `x` (the pointer itself is not).
#define PT_GUARDED_BY(x) DELTA_THREAD_ANNOTATION(pt_guarded_by(x))

/// Functions: caller must hold the listed capabilities.
#define REQUIRES(...) DELTA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Functions: caller must NOT hold them (the function acquires internally).
#define EXCLUDES(...) DELTA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Functions: acquire / release the listed capabilities.
#define ACQUIRE(...) DELTA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELEASE(...) DELTA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Functions: try-lock returning `ret` on success.
#define TRY_ACQUIRE(ret, ...) \
  DELTA_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))
/// Escape hatch for code the analysis cannot model; use sparingly and say why.
#define NO_THREAD_SAFETY_ANALYSIS DELTA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace delta::common {

/// std::mutex with capability annotations.  Non-recursive.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// std::lock_guard over common::Mutex, visible to the analysis.
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() RELEASE() { mu_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// Condition-variable-compatible lock over common::Mutex: satisfies
/// BasicLockable so std::condition_variable_any can release/reacquire it
/// around a wait.  To the analysis it behaves like LockGuard — the
/// capability is held from construction to destruction; the transient
/// unlock inside a wait is invisible, which is sound because the capability
/// is always held again whenever the waiting code observes guarded state.
class SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~UniqueLock() RELEASE() { mu_.unlock(); }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  // BasicLockable surface for condition_variable_any only; hidden from the
  // analysis so the wait's unlock/relock does not confuse it.
  void lock() NO_THREAD_SAFETY_ANALYSIS { mu_.lock(); }
  void unlock() NO_THREAD_SAFETY_ANALYSIS { mu_.unlock(); }

 private:
  Mutex& mu_;
};

}  // namespace delta::common
