// In-cache MESIF directory substrate (paper Table II lists a MESIF protocol
// with an in-cache directory).
//
// The multi-programmed experiments never share lines across cores, so the
// timing model does not route every access through this module.  The
// SPLASH estimator's private baseline (Sec. IV-C) keeps its replicated
// lines coherent through it, and tests exercise it directly.
//
// Concurrency: none, like SetAssocCache.  Each SPLASH estimate builds its
// own directory and drives it from one thread, so the class takes no lock;
// a caller that shares one across threads must serialise it.  The entry
// table is a vector indexed by block over a bound fixed at
// construction, so `for_each_entry` visits blocks in address order: checker
// output and any derived bookkeeping stay bit-identical across runs
// regardless of insertion history.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace delta::mem {

enum class CoherenceState : std::uint8_t { kInvalid, kShared, kExclusive, kModified };

struct DirectoryStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t invalidations_sent = 0;  ///< Per-sharer invalidation messages.
  std::uint64_t forwards = 0;            ///< Cache-to-cache transfers (F/E/M source).
  std::uint64_t memory_fetches = 0;      ///< Reads serviced by memory.
  std::uint64_t writebacks = 0;          ///< Dirty data written back to memory.
  void reset() { *this = DirectoryStats{}; }
};

/// Outcome of one coherence transaction, for timing/message accounting.
struct CoherenceAction {
  bool from_memory = false;     ///< Data came from a memory controller.
  bool forwarded = false;       ///< Data forwarded from another core's copy.
  CoreId forwarder = kInvalidCore;
  int invalidations = 0;        ///< Sharers invalidated by this transaction.
};

/// Full-map directory over up to 64 cores and the blocks [0, blocks).  Every
/// transaction and query throws std::out_of_range, before any state or stat
/// changes, for a block at or above the bound.
class MesifDirectory {
 public:
  MesifDirectory(int num_cores, std::uint64_t blocks);

  CoherenceAction on_read(CoreId core, BlockAddr block);
  CoherenceAction on_write(CoreId core, BlockAddr block);
  /// Silent or dirty eviction of `core`'s copy.
  void on_evict(CoreId core, BlockAddr block);

  CoherenceState state(BlockAddr block) const;
  std::uint64_t sharer_mask(BlockAddr block) const;
  bool is_sharer(CoreId core, BlockAddr block) const;
  /// MESIF forwarder for the block (kInvalidCore when none designated).
  CoreId forwarder(BlockAddr block) const;

  std::size_t tracked_blocks() const { return tracked_; }
  int num_cores() const { return num_cores_; }
  DirectoryStats stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// Invariant-checker support: visits every tracked entry as
  /// `fn(block, state, sharer_mask, forwarder)` in ascending block order.
  /// `fn` may query this directory (the agreement checker's residency probe
  /// does) but must not change it.
  void for_each_entry(const std::function<void(BlockAddr, CoherenceState,
                                               std::uint64_t, CoreId)>& fn) const {
    for (BlockAddr b = 0; b < dir_.size(); ++b) {
      const Entry& e = dir_[b];
      if (!e.empty()) fn(b, e.st, e.sharers, e.fwd);
    }
  }

 private:
  struct Entry {
    std::uint64_t sharers = 0;
    CoherenceState st = CoherenceState::kInvalid;
    CoreId fwd = kInvalidCore;  ///< F-state holder when st == kShared.
    bool empty() const { return sharers == 0 && st == CoherenceState::kInvalid; }
  };

  /// `block`'s index into the table; throws std::out_of_range at or above
  /// the bound.
  std::size_t index(BlockAddr block) const;

  static std::uint64_t bit(CoreId c) { return std::uint64_t{1} << c; }
  static int popcount(std::uint64_t m);
  static CoreId any_sharer(std::uint64_t m);

  int num_cores_;
  std::vector<Entry> dir_;
  std::size_t tracked_ = 0;  ///< Non-empty entries.
  DirectoryStats stats_;
};

}  // namespace delta::mem
