// Intra-run parallel epoch engine: shards one Chip's epoch across host
// threads while staying byte-identical to the serial interleaved loop.
//
// The serial engine (Chip::run_one_epoch) issues accesses in round-robin
// batches of Chip::interleave_batch() per core.  A bank's insertion and
// eviction decisions read only that bank's own state (set records,
// occupancy enforcer) plus the epoch plan (scheme.hpp), which is constant
// during the epoch, so once an epoch's streams are staged, banks apply
// independently.  Each epoch is ONE worker-pool
// section (two barrier crossings) holding three plain phases, each
// scheduled by a ClaimSet (common/parallel.hpp: home range first, then
// ascending steals):
//
//   Stage — one task per core: draw the core's whole epoch stream with one
//     TraceGen::fill (one RNG chain) straight into the core's block
//     buffer, feed it to the UMON shadow tags and route each access
//     through the plan to one bank byte, then counting-sort the stream
//     indices by that byte into one flat index array plus an offs[banks+1]
//     run table, so run b (the core's accesses to bank b, ascending) is
//     idx[offs[b], offs[b+1]).  Staging keeps 9 bytes per access (block
//     and bank) besides the index; the set is not staged.  Buffers keep
//     their high-water size across epochs and are never re-cleared.  Then
//     bump stage_done_ (release).
//
//   Apply — one task per bank, once stage_done_ == cores (acquire): collect
//     the contributors — cores whose run for this bank is non-empty, in
//     ascending core order, each with its plan mask for the bank — and
//     merge only their runs in the canonical serial order, ascending
//     (round, core, index) with round = index / interleave_batch(): the
//     run's cursor stays in a round while its index is below (round + 1) *
//     batch, so the bank sees the exact serial access sequence.  Each
//     access's set is recomputed from its block with the plan's
//     set_shift/set_mask.  Under occupancy enforcement the
//     victim preference is read per access (every fill moves it).
//     While an access is applied, the set of the access kPrefetchDistance
//     further along the same run is prefetched.  Each task first builds a
//     per-MCU miss-latency table (the bank-to-MCU round trip plus the
//     MCU's epoch-constant current_request_latency()); misses add their
//     entry to an exact integer tally per (bank, core), next to the
//     per-core hit/miss and per-MCU request counts.  Then the task bumps
//     banks_done_.
//
//   Reduce — one task per core, once banks_done_ == banks: an O(banks)
//     fold over the core's run table.  A run of length n to bank b adds
//     n * hops(c, b) hops and n round trips plus fixed tag/data latency;
//     the banks' miss-latency tallies add the rest.  Every latency and
//     hop count is a whole number and every partial sum stays far below
//     2^53, so the serial loop's per-access double additions are exact
//     integer sums: adding the integer totals once to the slot's double
//     accumulators gives bit-equal results.

// Which worker runs a task is the only degree of freedom, so stealing never
// changes results.  A throwing task sets failed_; claim loops and phase
// waits stop on it, and the pool rethrows on the caller.  After the section
// the owner folds the per-bank integer tallies in fixed bank order.  Policy
// steps (begin_epoch, UMON decay, the checker) stay on the serial epoch
// boundary in Chip::run_one_epoch.
//
// Earlier revisions let apply chase staging through per-core slice
// watermarks and per-bank slice chains.  That overlap measured 0.003-0.008
// of apply work on 4 cores — a core's stream is one indivisible chain and
// a slice needed every core's watermark — so it was removed.
//
// Why runs and contributors: DELTA's locality-aware CBT maps a core's
// addresses mostly to its home bank, so on the 64-tile w13 mix only ~69 of
// the 4096 (core, bank) runs in an epoch are non-empty (1038 of 61440 over
// 15 epochs).  A vector per (core, bank) would cost 64 clears and pushes
// per core, and a round scan over every core measured 0.12-0.13 of apply
// time (0.06-0.07 over contributors only).  Flat runs and the
// contributor-only merge keep both costs proportional to the accesses and
// contributors that exist.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.hpp"
#include "common/types.hpp"
#include "mem/replacement.hpp"
#include "obs/prof/prof.hpp"

namespace delta::sim {

class Chip;

class IntraEngine {
 public:
  /// `threads` is the resolved worker count (>= 2; Chip keeps the serial
  /// loop for 1).  The pool threads persist for the Chip's lifetime and
  /// park on a barrier between epochs; MachineConfig::intra_pin opts into
  /// CPU-affinity pinning, and the constructor runs a first-touch warm pass
  /// so per-worker buffers are faulted in by (roughly) the workers that
  /// will use them.
  IntraEngine(Chip& chip, unsigned threads);

  /// Replaces the serial interleaved-issue loop for one epoch.  Callable
  /// only from the thread that owns the Chip; requires begin_epoch /
  /// monitor decay / checker hooks to have already run.  A task exception
  /// is rethrown here once every worker has left the section.
  void run_epoch_accesses(bool measuring);

  unsigned threads() const { return pool_.parties(); }

 private:
  /// How many accesses ahead in a run apply prefetches the bank set: far
  /// enough to cover a set's miss latency behind the mask/latency work of
  /// the accesses in between.
  static constexpr std::size_t kPrefetchDistance = 8;

  /// Per-core staging, reused across epochs: 9 bytes per access (the
  /// block and its bank) plus its slot in `idx`.  The buffers only grow
  /// (to the largest epoch target seen); entries past `n` are stale.
  struct CoreStage {
    std::vector<BlockAddr> blocks;     ///< Stream in draw order; first n live.
    std::vector<std::uint8_t> banks;   ///< Routed bank per access: the sort key.
    std::size_t n = 0;                 ///< Accesses staged this epoch.
    /// Stream indices grouped by bank: run b is idx[offs[b], offs[b+1]),
    /// ascending within each run.
    std::vector<std::uint32_t> idx;
    std::vector<std::uint32_t> offs;  ///< banks + 1 run bounds.
  };

  /// One contributor's run in a bank merge.
  struct Run {
    const std::uint32_t* it;   ///< Next unconsumed stream index.
    const std::uint32_t* end;
    const BlockAddr* blocks;   ///< The core's staged stream.
    CoreId core;
    mem::WayMask mask;         ///< The core's plan mask in this bank.
  };

  /// Per-bank integer tallies, reused across epochs.  Written only by the
  /// bank's apply task, read by the owner after the section.
  struct BankTally {
    std::vector<std::uint64_t> hits;      ///< Per core.
    std::vector<std::uint64_t> misses;    ///< Per core.
    /// Per core: what this bank's misses added to the core's latency sum
    /// beyond the core-to-bank round trip and the fixed tag/data latency.
    std::vector<std::uint64_t> miss_lat;
    std::vector<std::uint64_t> mcu_reqs;  ///< Per MCU.
    std::vector<Cycles> mcu_lat;          ///< Scratch: miss latency per MCU.
    std::vector<Run> runs;                ///< Merge scratch: contributors.
  };

  // Task bodies (run by whichever worker claimed the task).
  void stage_core(CoreId c);
  /// stage_core's monitor/route loop over the drawn stream; `kMonitor` ==
  /// the core has a UMON.
  template <bool kMonitor>
  void stage_stream(CoreId c, CoreStage& st);
  /// `ms` is non-null only when kFull profiling samples the cursor-merge
  /// scan (1 round in 8); the clock reads live in obs/prof.
  void apply_bank(BankId b, obs::prof::EngineProfile::MergeScratch* ms);
  void reduce_core(CoreId c, bool measuring);
  /// Feeds per-(core,bank) run occupancy into the profile (kFull).
  void record_buffer_occupancy();

  /// One worker's share of the section: stage → apply → reduce.
  void worker_run(unsigned w, bool measuring);
  /// Spins until `counter` reaches the core count; false if a task failed.
  bool await_all(const std::atomic<std::uint32_t>& counter) const;

  Chip& chip_;
  WorkerPool pool_;
  std::vector<CoreStage> stages_;   ///< One per core.
  std::vector<BankTally> tallies_;  ///< One per bank.
  std::vector<std::uint64_t> remote_;  ///< Per core: hop > 0 accesses.
  /// Slot w: written only by worker w inside the section, read by the
  /// owner after the done barrier.
  std::vector<ClaimSet::Counts> wstats_;

  // Epoch-scoped scheduler state (the owner resets it before each section;
  // the pool's start barrier publishes the reset to workers).
  ClaimSet stage_claim_;   ///< Per core.
  ClaimSet apply_claim_;   ///< Per bank.
  ClaimSet reduce_claim_;  ///< Per core.
  std::atomic<std::uint32_t> stage_done_{0};  ///< Cores fully staged.
  std::atomic<std::uint32_t> banks_done_{0};  ///< Banks fully applied.
  std::atomic<bool> failed_{false};           ///< A task threw; stop.

  /// Phase/barrier spans + derived per-epoch metrics; owns no sim state and
  /// never feeds back into the computation (determinism contract).
  obs::prof::EngineProfile profile_;
};

/// Attaches an engine when resolve_workers(intra_jobs, cores) exceeds 1.
std::unique_ptr<IntraEngine> make_intra_engine(Chip& chip, int intra_jobs);

}  // namespace delta::sim
