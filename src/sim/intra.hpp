// The access engine: runs one Chip epoch's accesses bank by bank, on one
// or more host threads, byte-identical to the canonical interleaving.
//
// The canonical order (AccessEngine in sim/chip.hpp) issues accesses in
// round-robin batches of Chip::kInterleaveBatch per core.  A bank's
// insertion and eviction decisions read only that bank's own set records
// plus the epoch plan (scheme.hpp), which is constant during the epoch, so
// once an epoch's streams are staged, banks apply
// independently — the bank-by-bank enforcement of DELTA's Sec. II-C.  Each
// epoch is ONE worker-pool section (two barrier crossings; at one worker
// the pool runs it inline and starts no threads) holding three plain
// phases, each scheduled by a ClaimSet (common/parallel.hpp: home range
// first, then ascending steals):
//
//   Before the section the owner finds the epoch's private pairs in
//   O(cores) from the plan's per-core bank sets (EpochPlan::reach): core c
//   and bank b form one when c has accesses this epoch, every entry of c's
//   route names b, and no other core with accesses has a route entry
//   naming b.  The canonical interleaving restricted to such a bank
//   is c's stream in draw order, so nothing needs merging there.  DELTA's
//   locality-aware CBT makes this the common case: 81% of the 64-tile w13
//   mix's accesses under DELTA come from private pairs; on the 16-tile w6
//   mix, 100% under private, 80% under DELTA, 62% under CARMA, 40% under
//   ideal, and none under S-NUCA or LFOC, which spread every core over
//   every bank.
//
//   Stage — one task per core: draw the core's whole epoch stream with one
//     TraceGen::fill (one RNG chain) straight into the core's block buffer.
//     A private pair's core then feeds its UMON (the sampling loop below,
//     without the route) and runs the stream straight through bank b's
//     kernel in one segment, writing b's tally itself: per-core hits,
//     misses and miss latency, per-MCU requests, and the per-MCU latency
//     table built the way apply builds it.  Its run table becomes the one
//     run [0, n) at b; it stages no route bytes and no `idx`.  Every other
//     core runs one loop over its stream that routes each access through
//     the plan to one bank byte, counts run lengths in four interleaved
//     rows (a core's accesses mostly share one bank, and one row would
//     chain every increment through memory) and, when the core has a UMON,
//     appends the block to a per-core sampled buffer without a branch: the
//     monitor's own sampling rule (umon::Umon::Sampler, copied into locals)
//     decides whether the cursor advances.  The monitor then takes the
//     sampled blocks in stream order (Umon::feed, which prefetches a stack
//     a few blocks ahead).  Then counting-sort the stream indices by bank
//     into one flat index array plus an offs[banks+1] run table, so run b
//     (the core's accesses to bank b, ascending) is idx[offs[b],
//     offs[b+1]).  Staging keeps 9 bytes per access (block and bank)
//     besides the index; the set is not staged.  Buffers keep their
//     high-water size across epochs and are never re-cleared.  Then bump
//     stage_done_ (release).
//
//   Apply — one task per bank, once stage_done_ == cores (acquire).  A
//     private pair's bank returns at once: its stage task applied it.
//     Otherwise collect the contributors — cores whose run for this bank is
//     non-empty, in ascending core order, each with its plan mask for the
//     bank — and apply only their runs in the canonical order, ascending
//     (round, core, index) with round = index / Chip::kInterleaveBatch.
//     Sparse banks (few long runs: DELTA, private) are merged by one walk
//     per round: each run's cursor stays in the round while its index is
//     below the round's end, and as a run leaves the round it reports its
//     next index; the lowest of those names the next round.  Dense banks
//     (a run visit per two accesses or more: S-NUCA, LFOC, every core over
//     every bank) first list their accesses by a stable counting sort by
//     round, whose passes have no data-dependent branch, and then apply the
//     list.  Either way the bank sees the exact canonical access sequence.
//     Every access runs the cache's one hit-or-fill kernel,
//     mem::SetAssocCache::Kernel, held in a local, as are the set geometry
//     and the controller interleave: the kernel stores
//     through types that may alias anything, so state read through a
//     pointer would be reloaded after every access.  The sparse walk and
//     the private path share one inlined per-segment loop (apply_segment in
//     intra.cpp): it keeps the run's cursor, mask and core and its hit,
//     miss and latency counts in locals, and the caller writes the counts
//     to the bank tally once per segment (a run's stay in one round, or a
//     private core's whole stream).  Each access's set is recomputed from
//     its block with the plan's set_shift/set_mask.  While an access is
//     applied, the set of the access kPrefetchDistance further along its
//     run (sparse) or the list (dense) is prefetched.  Each task first
//     builds a per-MCU miss-latency table (the bank-to-MCU round trip plus
//     the MCU's epoch-constant current_request_latency()); misses add their
//     entry to an exact integer tally per (bank, core), next to the
//     per-core hit/miss and per-MCU request counts.  Then the task bumps
//     banks_done_.
//
//   Reduce — one task per core, once banks_done_ == banks: an O(banks)
//     fold over the core's run table.  A run of length n to bank b adds
//     n * hops(c, b) hops and n round trips plus fixed tag/data latency;
//     the banks' miss-latency tallies add the rest.  Every latency and
//     hop count is a whole number and every partial sum stays far below
//     2^53, so per-access double additions would be exact integer sums:
//     adding the integer totals once to the slot's double accumulators
//     gives bit-equal results.

// Which worker runs a task is the only degree of freedom, so stealing never
// changes results.  A throwing task sets failed_; claim loops and phase
// waits stop on it, and the pool rethrows on the caller.  After the section
// the owner folds the per-bank integer tallies in fixed bank order.  Policy
// steps (begin_epoch, UMON decay, the checker) stay on the epoch boundary
// in Chip::run_one_epoch.  The engine keeps only its own scratch between
// epochs; everything it reads and writes of the chip arrives in the
// EpochAccess of each call.
//
// Earlier revisions let apply chase staging through per-core slice
// watermarks and per-bank slice chains.  That overlap measured 0.003-0.008
// of apply work on 4 cores — a core's stream is one indivisible chain and
// a slice needed every core's watermark — so it was removed.
//
// Why private pairs skip the merge: staging a private core's stream costs
// a route byte, a count and a scatter per access, the apply task a run
// visit per round, and the bank waits for the stage barrier though no
// other core can touch it.  Applying in the stage task drops all of that
// and leaves the barrier only the banks that merge.  A chunked
// draw-and-apply that skipped block staging for private pairs measured no
// better (docs/performance.md lists it with the other measured negatives).
//
// Why runs and contributors: DELTA's locality-aware CBT maps a core's
// addresses mostly to its home bank, so on the 64-tile w13 mix only ~69 of
// the 4096 (core, bank) runs in an epoch are non-empty (1038 of 61440 over
// 15 epochs).  A vector per (core, bank) would cost 64 clears and pushes
// per core, and a separate lowest-round scan over every core measured
// 0.12-0.13 of apply time (0.06-0.07 over contributors only).  Flat runs,
// the contributor-only merge and the scan folded into the walk keep the
// merge's cost proportional to the accesses and contributors that exist.
// The walk costs a run visit per (run, round) and an unpredictable loop
// exit per visit.  Timed apart from the accesses (TSC cycles per access,
// 4-vCPU x86-64 host) it took 6-10 on DELTA and private, but 45-50 on
// 16-tile S-NUCA (about one access per visit) and 140-150 on 64-tile
// S-NUCA (four visits per access); the counting sort took 11-30 at any
// density.  So dense banks sort and sparse banks walk.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"
#include "mem/replacement.hpp"
#include "obs/prof/prof.hpp"
#include "sim/chip.hpp"

namespace delta::sim {

class IntraEngine final : public AccessEngine {
 public:
  /// `threads` is the worker count (>= 1).  Pool threads persist for the
  /// engine's lifetime and park on a barrier between epochs.
  IntraEngine(int cores, int mcus, unsigned threads);

  /// One epoch's accesses.  Callable only from the thread that owns the
  /// chip, after the epoch's policy step.  A task exception is rethrown
  /// here once every worker has left the section.
  void run_epoch(const EpochAccess& io) override;

  unsigned threads() const override { return pool_.parties(); }

 private:
  /// Per-core staging, reused across epochs: 9 bytes per access (the
  /// block and its bank) plus its slot in `idx`.  The buffers only grow
  /// (to the largest epoch target seen); entries past `n` are stale.  A
  /// private pair's core fills only `blocks`, `sampled` and `offs`.
  struct CoreStage {
    std::vector<BlockAddr> blocks;     ///< Stream in draw order; first n live.
    std::vector<std::uint8_t> banks;   ///< Routed bank per access: the sort key.
    std::size_t n = 0;                 ///< Accesses staged this epoch.
    /// Stream indices grouped by bank: run b is idx[offs[b], offs[b+1]),
    /// ascending within each run.
    std::vector<std::uint32_t> idx;
    std::vector<std::uint32_t> offs;  ///< banks + 1 run bounds.
    /// The blocks the core's UMON samples, in stream order; first k live.
    std::vector<BlockAddr> sampled;
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
  /// bank's apply task (or, for a private pair's bank, by the core's stage
  /// task), read by reduce and by the owner after the section.
  struct BankTally {
    std::vector<std::uint64_t> hits;      ///< Per core.
    std::vector<std::uint64_t> misses;    ///< Per core.
    /// Per core: what this bank's misses added to the core's latency sum
    /// beyond the core-to-bank round trip and the fixed tag/data latency.
    std::vector<std::uint64_t> miss_lat;
    std::vector<std::uint64_t> mcu_reqs;  ///< Per MCU.
    std::vector<Cycles> mcu_lat;          ///< Scratch: miss latency per MCU.
    std::vector<Run> runs;                ///< Merge scratch: contributors.
    /// Dense-merge scratch: the bank's blocks in canonical order, each
    /// one's index in `runs`, and the counting sort's per-round cursors.
    std::vector<BlockAddr> seq_blocks;
    std::vector<std::uint8_t> seq_runs;
    std::vector<std::uint32_t> round_pos;
  };

  /// Sets private_bank_ and bank_private_ for the epoch (owner thread,
  /// before the section).
  void find_private_pairs(const EpochAccess& io);

  // Task bodies (run by whichever worker claimed the task).
  void stage_core(const EpochAccess& io, CoreId c);
  /// stage_core's monitor/route loop over the drawn stream; `kMonitor` ==
  /// feed the core's UMON, `kRoute` == stage route bytes and run lengths.
  template <bool kMonitor, bool kRoute>
  void stage_stream(const EpochAccess& io, CoreId c, CoreStage& st);
  /// stage_core's tail for core `c` of a private pair with bank `b`: the
  /// monitor feed, the one-run table and the whole apply of bank `b`.
  void stage_private(const EpochAccess& io, CoreId c, BankId b, CoreStage& st);
  /// Zeroes bank `b`'s tally and builds its per-MCU miss-latency table.
  static void open_tally(const EpochAccess& io, BankId b, BankTally& tally);
  void apply_bank(const EpochAccess& io, BankId b);
  void reduce_core(const EpochAccess& io, CoreId c);
  /// Feeds per-(core,bank) run occupancy into the profile (kFull).
  void record_buffer_occupancy();

  /// One worker's share of the section: stage → apply → reduce.
  void worker_run(const EpochAccess& io, unsigned w);
  /// Spins until `counter` reaches the core count; false if a task failed.
  bool await_all(const std::atomic<std::uint32_t>& counter) const;

  const std::uint32_t cores_;
  WorkerPool pool_;
  std::vector<CoreStage> stages_;   ///< One per core.
  std::vector<BankTally> tallies_;  ///< One per bank.
  std::vector<std::uint64_t> remote_;  ///< Per core: hop > 0 accesses.
  /// This epoch's private pairs (find_private_pairs): per core, the bank
  /// it applies in its stage task, or kInvalidBank; per bank, 1 when a
  /// stage task applies it.
  std::vector<BankId> private_bank_;
  std::vector<std::uint8_t> bank_private_;
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

/// The engine a chip of `cfg` runs: resolve_workers(cfg.intra_jobs,
/// cfg.cores) workers.
std::unique_ptr<AccessEngine> make_intra_engine(const MachineConfig& cfg);

}  // namespace delta::sim
