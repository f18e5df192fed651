// Engine self-profiling: scoped wall-clock phase timers with thread-local
// buffers feeding a process-wide span log and per-site duration aggregates.
//
// This is the one directory where wall-clock reads are legal (the
// nondet-source lint bans steady_clock everywhere else in src/); call sites
// in sim/ instrument themselves through the RAII types below and never touch
// a clock directly.  Profiling is observation-only by construction — spans
// and site aggregates are written to side buffers that nothing in the
// simulator ever reads back — so results stay byte-identical with profiling
// on or off at any thread count (asserted by tests/test_prof.cpp and the CI
// benchmark job).
//
// Gating: one process-wide relaxed-atomic ProfLevel.
//   kOff  — collect nothing.  A disabled site costs one relaxed load +
//     branch (micro_obs_overhead gates the end-to-end cost at < 2%).
//   kFull — phase spans (epoch / policy / stage / apply / reduce / barrier
//     sections, sweep-job scheduling, derived per-epoch metrics), per-call
//     site aggregates (per-core stage/reduce, per-bank apply) and
//     per-(core,bank) staging-buffer occupancy.  Budget < 8%.
//
// Span model: each span is (seq, start_ns, dur_ns, tid, phase, arg).  seq is
// a process-wide sequence number drawn at record time, so a snapshot can be
// ordered into one deterministic-format timeline; start/dur are nanoseconds
// on the steady clock relative to a process-fixed origin; tid is a stable
// per-thread slot; arg carries the epoch (or job index) the span belongs to.
// Spans land in per-thread buffers (one uncontended mutex each, locked only
// against snapshots) capped at kMaxSpansPerThread with drop accounting.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "common/parallel.hpp"
#include "common/sync.hpp"

namespace delta::obs::prof {

enum class ProfLevel : int { kOff = 0, kFull = 1 };

const char* to_string(ProfLevel lvl);

/// Span categories.  Phases of the intra-run engine mirror sim/intra.hpp;
/// kBarrier spans are the derived done-barrier waits (a worker's wait is the
/// gap between its own work_done and the section's last work_done).
enum class Phase : std::uint8_t {
  kEpoch = 0,     ///< One whole Chip::run_one_epoch.
  kPolicy,        ///< Budgets + begin_epoch + monitor decay + checker.
  kAccounting,    ///< MCU end_epoch + epoch accounting + timeline sample.
  kStage,         ///< Intra staging task run (per-worker, inside kPipeline).
  kApply,         ///< Intra apply task run (per-worker, inside kPipeline).
  kReduce,        ///< Intra reduce task run (per-worker, inside kPipeline).
  kPipeline,      ///< Intra stage→apply→reduce worker section.
  kSerialTail,    ///< Intra serial integer-tally reduction.
  kBarrier,       ///< Done-barrier wait inside a worker section.
  kSweepJob,      ///< One run_sweep job (a whole simulation).
  kSweep,         ///< One run_sweep fan-out; arg = the threads running it.
  kCount
};

std::string_view phase_name(Phase p);

/// Per-call aggregation sites (duration totals + log-bucket histograms, no
/// individual spans — these fire far too often for the span log).
enum class Site : std::uint8_t {
  /// The retired serial issue loop's batches.  No engine emits it now; it
  /// stays because consumers that sum access work still read the slot.
  kAccessBatch = 0,
  kStageCore,        ///< IntraEngine::stage_core.
  kApplyBank,        ///< IntraEngine::apply_bank.
  kReduceCore,       ///< IntraEngine::reduce_core.
  kCount
};

std::string_view site_name(Site s);

struct Span {
  std::uint64_t seq = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;
  std::uint32_t tid = 0;
  Phase phase = Phase::kEpoch;
};

struct SiteTotal {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  LogHistogram hist;
};

/// Everything a snapshot carries; exporters consume this by value.
struct ProfSnapshot {
  ProfLevel level = ProfLevel::kOff;
  std::vector<Span> spans;  ///< Ascending seq.
  std::array<SiteTotal, static_cast<std::size_t>(Site::kCount)> sites;
  std::uint64_t dropped_spans = 0;

  /// Total recorded duration across spans of one phase.
  std::uint64_t phase_ns(Phase p) const;

  /// Share of the sweeps' thread time that ran no job: (threads x sweep
  /// wall - total sweep_job wall) / (threads x sweep wall), summed over
  /// every kSweep span; 0 when no sweep was recorded.
  double sweep_idle_share() const;
};

namespace detail {
inline std::atomic<int>& level_slot() {
  static std::atomic<int> lvl{static_cast<int>(ProfLevel::kOff)};
  return lvl;
}
inline std::chrono::steady_clock::time_point origin() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return t0;
}
}  // namespace detail

/// Sets the process-wide collection level.  Set it before constructing the
/// chips/pools you want profiled; raising it mid-run is safe (observation
/// only) but sections already in flight keep their armed/disarmed state.
inline void set_level(ProfLevel lvl) {
  detail::level_slot().store(static_cast<int>(lvl), std::memory_order_relaxed);
}
inline ProfLevel level() {
  return static_cast<ProfLevel>(detail::level_slot().load(std::memory_order_relaxed));
}
/// The disabled-site fast path: one relaxed load + compare.
inline bool enabled() {
  return detail::level_slot().load(std::memory_order_relaxed) !=
         static_cast<int>(ProfLevel::kOff);
}

/// Nanoseconds on the steady clock since a process-fixed origin.  The origin
/// is latched on first use; init_clock() pins it early in main() so
/// concurrent first uses cannot race the static init from hot paths.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - detail::origin())
          .count());
}

inline void init_clock() { (void)now_ns(); }

/// Process-wide span/site store.  Threads register lazily and keep their
/// buffer for the process lifetime; record paths lock only the calling
/// thread's own (uncontended) mutex, snapshots walk all buffers.
class Profiler {
 public:
  static Profiler& instance();

  /// Appends a span to the calling thread's buffer (drop-counted past the
  /// per-thread cap).  Callers check enabled() first; this always records.
  void record_span(Phase p, std::uint64_t start_ns, std::uint64_t dur_ns,
                   std::uint64_t arg);

  /// Folds one duration into the calling thread's per-site aggregate.
  void add_site(Site s, std::uint64_t dur_ns);

  /// Stable slot of the calling thread in this profiler (also the tid spans
  /// carry).  Slots count up from 0 in first-record order.
  std::uint32_t thread_slot();

  /// Deep-copy snapshot: spans from every thread buffer merged and sorted by
  /// seq, site aggregates merged across threads.  Safe against concurrent
  /// recording (each buffer is copied under its own mutex).
  ProfSnapshot snapshot() const;

  /// Drops all recorded data (buffers stay registered).  Tests and benches
  /// use this between measured configurations.
  void clear();

  static constexpr std::size_t kMaxSpansPerThread = 1u << 20;

 private:
  struct ThreadBuf {
    mutable common::Mutex mu;
    std::vector<Span> spans GUARDED_BY(mu);
    std::array<SiteTotal, static_cast<std::size_t>(Site::kCount)> sites
        GUARDED_BY(mu);
    std::uint64_t dropped GUARDED_BY(mu) = 0;
    std::uint32_t tid = 0;
  };

  Profiler() = default;
  ThreadBuf& local_buf() EXCLUDES(mu_);

  mutable common::Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_ GUARDED_BY(mu_);
  std::atomic<std::uint64_t> seq_{0};
};

/// RAII phase span: arms itself when profiling is on, and records one span
/// on destruction.  Disabled cost: one relaxed load.
class ScopedSpan {
 public:
  explicit ScopedSpan(Phase p, std::uint64_t arg = 0) {
    if (enabled()) {
      phase_ = p;
      arg_ = arg;
      start_ = now_ns();
      armed_ = true;
    }
  }
  ~ScopedSpan() { stop(); }
  /// Ends the span now instead of at scope exit (idempotent).
  void stop() {
    if (armed_) {
      Profiler::instance().record_span(phase_, start_, now_ns() - start_, arg_);
      armed_ = false;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t start_ = 0;
  std::uint64_t arg_ = 0;
  Phase phase_ = Phase::kEpoch;
  bool armed_ = false;
};

/// RAII site timer: like ScopedSpan but folds into the per-thread site
/// aggregate instead of the span log, because the sites it guards fire per
/// batch/core/bank, not per phase.
class ScopedSite {
 public:
  explicit ScopedSite(Site s) {
    if (enabled()) {
      site_ = s;
      start_ = now_ns();
      armed_ = true;
    }
  }
  ~ScopedSite() {
    if (armed_) Profiler::instance().add_site(site_, now_ns() - start_);
  }
  ScopedSite(const ScopedSite&) = delete;
  ScopedSite& operator=(const ScopedSite&) = delete;

 private:
  std::uint64_t start_ = 0;
  Site site_ = Site::kAccessBatch;
  bool armed_ = false;
};

/// Per-WorkerPool profiling: implements the pool's WorkerHooks to clock each
/// worker's section, derives done-barrier waits (a worker's wait is the gap
/// to the section's last work_done), and folds per-epoch derived metrics —
/// barrier-wait fraction, worker-imbalance ratio, staging-buffer occupancy
/// — into the global MetricsRegistry.  One instance per engine, driven from the pool's owner
/// thread (begin_section/end_section/end_epoch); the hook slots are written
/// by each worker inside the section and read by the owner after the done
/// barrier, which orders them (same argument as WorkerPool::fn_).
class EngineProfile final : public WorkerHooks {
 public:
  explicit EngineProfile(unsigned workers);
  ~EngineProfile() override;

  /// Arms the next pool section if profiling is on; `epoch` labels the
  /// kPipeline spans the section will record.
  void begin_section(std::uint64_t epoch);
  /// Records per-worker busy + barrier spans for the section that just
  /// finished and accumulates the epoch's totals.  Pair with begin_section
  /// around every pool run.
  void end_section();

  /// True when the current section is being measured (cheap cached flag —
  /// call sites use it to gate occupancy accounting without re-reading the
  /// level).
  bool armed() const { return armed_; }

  // WorkerHooks (called on worker threads, inside a section):
  void section_begin(unsigned worker) override;
  void work_done(unsigned worker) override;

  /// Worker-side task attribution inside a section: the
  /// scheduler calls this when worker `worker` starts a task of kind `p`
  /// (kStage / kApply / kReduce).  Consecutive tasks of the same kind extend
  /// one span; a kind switch closes the open span and records it, so the
  /// trace keeps per-phase rows even though the pool runs a single
  /// section.  work_done() flushes the last open span.  No-op when the
  /// section is not armed.
  void task_begin(unsigned worker, Phase p);

  /// One per-(core,bank) staged-access count (nonzero lists only).
  void add_occupancy(std::uint64_t staged, std::uint64_t pairs_total,
                     std::uint64_t pairs_nonzero);

  /// Closes the epoch: updates cumulative totals, pushes derived metrics
  /// (fractions, imbalance, per-epoch histograms) into the registry.
  void end_epoch();

  /// Machine-independent engine-health accounting, one call per epoch from
  /// the owner thread.  Unlike the timing metrics this is NOT gated on the
  /// profiling level: the counts are structural (how many epochs and tasks
  /// the engine ran, and how many tasks were stolen) and read no clock.
  /// Every epoch is one pool section, i.e. two barrier crossings (start +
  /// done).
  void count_epoch(std::uint64_t tasks, std::uint64_t tasks_stolen);

 private:
  struct WorkerSlot {
    std::uint64_t begin_ns = 0;
    std::uint64_t done_ns = 0;
  };

  /// Open task span of one worker (task_begin/work_done flush).  Written
  /// only by the owning worker inside a section.
  struct TaskSlot {
    std::uint64_t start_ns = 0;
    Phase phase = Phase::kStage;
    bool open = false;
  };

  void flush_task(unsigned worker, std::uint64_t now);

  // Cumulative run ratios that end_epoch (timing) and count_epoch (health,
  // any profiling level) push into the registry.
  double steal_fraction() const;
  double barrier_wait_fraction() const;
  double worker_imbalance_ratio() const;

  const unsigned workers_;
  std::vector<WorkerSlot> slots_;
  std::vector<TaskSlot> tasks_;
  std::vector<std::uint64_t> epoch_busy_;  ///< Per worker, this epoch.
  std::uint64_t epoch_arg_ = 0;
  bool armed_ = false;

  // Cumulative over the run (owner thread only).
  std::uint64_t cum_barrier_ns_ = 0;
  std::uint64_t cum_section_ns_ = 0;   ///< busy + barrier.
  double imbalance_sum_ = 0.0;
  std::uint64_t imbalance_epochs_ = 0;

  // Health totals (owner thread only; counted at every profiling level).
  std::uint64_t health_tasks_ = 0;
  std::uint64_t health_stolen_ = 0;

  struct Handles;
  std::unique_ptr<Handles> handles_;  ///< Lazily bound registry metrics.
  void ensure_handles();
};

}  // namespace delta::obs::prof
