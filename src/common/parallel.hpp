// parallel_for: fork-join helper over an index range.  Workers claim the
// next unrun index from one shared atomic counter, so a thread that draws
// short runs keeps drawing while a long one finishes; results stay
// index-addressed, so which thread ran an index never shows in them.
//
// The experiment drivers use it to fan independent (mix, scheme, config)
// runs over hardware threads.  It degenerates to a plain serial loop when
// one thread is available or requested, or when the range holds one index,
// which keeps single-CPU CI hosts deterministic and spawns no thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace delta {

namespace detail {

/// First-exception capture slot shared by the worker pool.  The annotated
/// mutex lets clang's -Wthread-safety prove that `error_` is only touched
/// under the lock; the separate relaxed flag keeps the workers' fast-path
/// poll lock-free.
class ErrorSlot {
 public:
  /// Records the current in-flight exception if none was captured yet and
  /// flags every worker to stop picking up new indices.
  void capture() EXCLUDES(mu_) {
    {
      const common::LockGuard lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    failed_.store(true, std::memory_order_relaxed);
  }

  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  /// After all workers joined: the first captured exception (or null).
  std::exception_ptr take() EXCLUDES(mu_) {
    const common::LockGuard lock(mu_);
    return error_;
  }

 private:
  common::Mutex mu_;
  std::exception_ptr error_ GUARDED_BY(mu_);
  std::atomic<bool> failed_{false};
};

}  // namespace detail

/// Hardware thread count, never 0.
inline unsigned hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Worker count for an engine over `cap` items (cores, banks): `requested`
/// <= 0 is auto (hardware_threads()), explicit values may oversubscribe.
/// Either way the result is clamped to [1, cap].
inline unsigned resolve_workers(int requested, std::size_t cap) {
  std::size_t n =
      requested <= 0 ? hardware_threads() : static_cast<std::size_t>(requested);
  if (n > cap) n = cap;
  return n == 0 ? 1 : static_cast<unsigned>(n);
}

/// Invokes `body(i)` for every i in [begin, end) using up to `threads`
/// worker threads (0 == hardware_concurrency).  Blocks until all complete.
/// `body` must be safe to call concurrently for distinct indices.
///
/// Exceptions: if any invocation throws, the first exception (by completion
/// order) is rethrown on the calling thread after every worker has joined.
/// Remaining workers stop picking up new indices once a failure is flagged,
/// so a throwing body cannot terminate the process the way an escaping
/// exception on a std::thread would.
inline void parallel_for(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t)>& body,
                         unsigned threads = 0) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  unsigned hw = threads == 0 ? hardware_threads() : threads;
  if (hw > n) hw = static_cast<unsigned>(n);
  if (hw <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  detail::ErrorSlot error;
  std::atomic<std::size_t> next{begin};
  std::vector<std::thread> pool;
  pool.reserve(hw);
  for (unsigned t = 0; t < hw; ++t) {
    pool.emplace_back([&] {
      // Claim indices in ascending order until the range is drained.
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < end;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        if (error.failed()) return;
        try {
          body(i);
        } catch (...) {
          error.capture();
          return;
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  if (std::exception_ptr e = error.take()) std::rethrow_exception(e);
}

/// Contiguous slice [begin, end) of an n-element range for worker `part` of
/// `parts`.  The first n % parts workers get one extra element, so any two
/// calls with the same (n, parts) tile the range exactly — the static
/// scheduling used by the intra-run epoch engine, where *which* worker runs
/// a shard must not affect results, only wall-clock.
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

inline IndexRange static_partition(std::size_t n, unsigned parts,
                                   unsigned part) {
  if (parts == 0) parts = 1;
  const std::size_t base = n / parts;
  const std::size_t rem = n % parts;
  const std::size_t extra = part < rem ? part : rem;
  const std::size_t lo = static_cast<std::size_t>(part) * base + extra;
  return {lo, lo + base + (part < rem ? 1 : 0)};
}

/// Generation-counted reusable barrier: `parties` threads block in
/// arrive_and_wait() until all have arrived, then all release together and
/// the barrier resets for the next cycle.  The mutex hand-off at each
/// release is also the memory fence the worker pool relies on: writes made
/// before a thread arrives are visible to every thread after release.
class CyclicBarrier {
 public:
  explicit CyclicBarrier(unsigned parties) : parties_(parties == 0 ? 1 : parties) {}
  CyclicBarrier(const CyclicBarrier&) = delete;
  CyclicBarrier& operator=(const CyclicBarrier&) = delete;

  void arrive_and_wait() EXCLUDES(mu_) {
    common::UniqueLock lock(mu_);
    const std::uint64_t gen = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    while (generation_ == gen) cv_.wait(lock);
  }

 private:
  common::Mutex mu_;
  std::condition_variable_any cv_;
  const unsigned parties_;
  unsigned arrived_ GUARDED_BY(mu_) = 0;
  std::uint64_t generation_ GUARDED_BY(mu_) = 0;
};

/// Per-index claim flags for deterministic work-stealing inside a WorkerPool
/// section.  Every party calls run() with its own worker index and each
/// index in [0, n) runs on exactly one of them: a worker claims its
/// static_partition home range first, then steals unclaimed indices in
/// ascending order.  Only *which* worker runs an index varies between runs.
/// Claims are relaxed — ordering between tasks or phases is the caller's
/// (e.g. a release counter the next phase acquires).
class ClaimSet {
 public:
  /// Tasks one worker ran in one run(), and how many lay outside its home.
  struct Counts {
    std::uint64_t tasks = 0;
    std::uint64_t stolen = 0;
    Counts& operator+=(const Counts& o) {
      tasks += o.tasks;
      stolen += o.stolen;
      return *this;
    }
  };

  explicit ClaimSet(std::size_t n = 0)
      : n_(n), claimed_(std::make_unique<std::atomic<std::uint8_t>[]>(n)) {
    reset();
  }

  /// Unclaims every index.  Owner-side, between sections (the pool's start
  /// barrier publishes it).
  void reset() {
    for (std::size_t i = 0; i < n_; ++i) claimed_[i].store(0, std::memory_order_relaxed);
  }

  /// Calls fn(i) for every index worker `worker` of `parts` wins.  Claims
  /// nothing more once `failed` is set; if fn throws, sets `failed` (so
  /// peers stop too) and rethrows.
  template <class Fn>
  Counts run(unsigned parts, unsigned worker, std::atomic<bool>& failed, Fn&& fn) {
    const IndexRange home = static_partition(n_, parts, worker);
    Counts counts;
    for (std::size_t k = 0; k < n_; ++k) {
      if (failed.load(std::memory_order_relaxed)) break;
      // Home range first, then every other index in ascending order.
      const std::size_t j = k - home.size();
      const std::size_t i =
          k < home.size() ? home.begin + k : (j < home.begin ? j : j + home.size());
      // Test before exchanging, so steal passes mostly just read.
      if (claimed_[i].load(std::memory_order_relaxed) != 0 ||
          claimed_[i].exchange(1, std::memory_order_relaxed) != 0)
        continue;
      try {
        fn(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;
      }
      ++counts.tasks;
      if (k >= home.size()) ++counts.stolen;
    }
    return counts;
  }

 private:
  std::size_t n_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> claimed_;
};

/// Observation hooks for WorkerPool sections.  The profiler (obs/prof)
/// implements this to measure per-worker busy time and barrier waits without
/// the pool itself touching a clock (wall-clock reads are banned outside
/// src/obs/prof by the nondet-source lint).
///
/// Contract: for every run() section each party w gets section_begin(w) right
/// after the start barrier releases it and work_done(w) right after its fn
/// returns, before it arrives at the done barrier.  Both calls happen on
/// worker w's thread; the done barrier orders anything they write before the
/// caller regains control, so a hook may keep plain per-worker slots.  Hooks
/// must observe only — they run inside the section and anything they do that
/// feeds back into `fn` would break the pool's determinism contract.
class WorkerHooks {
 public:
  virtual ~WorkerHooks() = default;
  virtual void section_begin(unsigned worker) = 0;
  virtual void work_done(unsigned worker) = 0;
};

/// Persistent fork-join pool for repeated fine-grained parallel sections.
///
/// `parallel_for` spawns and joins threads per call, which is fine for
/// sweep-granularity work (one job = a whole simulation) but far too
/// expensive inside an epoch loop that forks thousands of times per run.
/// WorkerPool keeps `parties - 1` threads parked on a barrier between
/// sections; `run(fn)` wakes them, executes `fn(worker)` on every party
/// (the calling thread doubles as worker 0), and returns once all are done.
///
/// Exceptions thrown by `fn` are captured per worker and rethrown on the
/// caller in worker-index order — deterministic, unlike first-completion
/// order.  `parties() == 1` degenerates to a plain inline call with no
/// threads and no synchronization.
///
/// A pool instance may only be driven from one thread at a time; the
/// intra-run engine owns one pool per Chip, matching that contract.
class WorkerPool {
 public:
  explicit WorkerPool(unsigned parties)
      : parties_(parties == 0 ? 1 : parties),
        start_(parties_),
        done_(parties_),
        errors_(parties_) {
    threads_.reserve(parties_ - 1);
    for (unsigned w = 1; w < parties_; ++w)
      threads_.emplace_back([this, w] { worker_loop(w); });
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    if (parties_ > 1) {
      stop_ = true;  // Published to workers by the start barrier's mutex.
      start_.arrive_and_wait();
      for (auto& th : threads_) th.join();
    }
  }

  unsigned parties() const { return parties_; }

  /// Installs (or clears, with nullptr) the section observation hooks.  May
  /// only be called from the owning thread while no section is running; the
  /// pointer is published to workers by the next start-barrier hand-off.
  void set_hooks(WorkerHooks* hooks) { hooks_ = hooks; }

  void run(const std::function<void(unsigned)>& fn) {
    if (parties_ == 1) {
      if (hooks_ != nullptr) hooks_->section_begin(0);
      fn(0);
      if (hooks_ != nullptr) hooks_->work_done(0);
      return;
    }
    fn_ = &fn;
    start_.arrive_and_wait();
    if (hooks_ != nullptr) hooks_->section_begin(0);
    invoke(0);
    if (hooks_ != nullptr) hooks_->work_done(0);
    done_.arrive_and_wait();
    fn_ = nullptr;
    for (unsigned w = 0; w < parties_; ++w) {
      if (errors_[w]) {
        const std::exception_ptr e = errors_[w];
        for (auto& slot : errors_) slot = nullptr;
        std::rethrow_exception(e);
      }
    }
  }

 private:
  void worker_loop(unsigned w) {
    for (;;) {
      start_.arrive_and_wait();
      if (stop_) return;
      if (hooks_ != nullptr) hooks_->section_begin(w);
      invoke(w);
      if (hooks_ != nullptr) hooks_->work_done(w);
      done_.arrive_and_wait();
    }
  }

  void invoke(unsigned w) {
    try {
      (*fn_)(w);
    } catch (...) {
      errors_[static_cast<std::size_t>(w)] = std::current_exception();
    }
  }

  const unsigned parties_;
  CyclicBarrier start_;
  CyclicBarrier done_;
  // Both written by the caller strictly before a start-barrier arrival and
  // read by workers strictly after release, so the barrier orders them.
  const std::function<void(unsigned)>* fn_ = nullptr;
  WorkerHooks* hooks_ = nullptr;  // Published like fn_: set while idle only.
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  // Slot w: written only by worker w.
  std::vector<std::thread> threads_;
};

}  // namespace delta
