// Set-associative cache with owner-tagged lines and way-mask constrained
// insertion — the building block for every LLC bank in the simulator.
//
// Lookups ("all cores can access data irrespective of which way it resides",
// Sec. II-C2) scan the whole set; insertion picks the LRU victim among the
// ways the inserting core's way-partition mask allows.  Lines remember both
// the block address and the owning core so that DELTA's bulk-invalidation
// unit can sweep remapped ranges without auxiliary structures.
//
// Layout is structure-of-arrays: tags and owners in set-major vectors, one
// validity bitmask per set, and one 32-byte recency-rank row per set (rank
// 0 = MRU; common/simd.hpp rank_promote / rank_oldest).  A hit is a SIMD
// tag compare plus one rank promote; a miss picks its victim with one
// masked rank scan.  The ranks are exact LRU: every touch makes its way the
// unique MRU and keeps the order of the rest, so no two ways of a set ever
// tie, and a rank row has no counter to overflow however long the run.
// Supports 1 to 32 ways.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "common/types.hpp"
#include "mem/replacement.hpp"

namespace delta::mem {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;        ///< Valid lines displaced by insertion.
  std::uint64_t invalidations = 0;    ///< Lines removed by invalidate calls.
  std::uint64_t accesses() const { return hits + misses; }
  double miss_rate() const {
    const auto a = accesses();
    return a ? static_cast<double>(misses) / static_cast<double>(a) : 0.0;
  }
  void reset() { *this = CacheStats{}; }
};

struct AccessResult {
  bool hit = false;
  bool evicted = false;        ///< Insertion displaced a valid line.
  BlockAddr victim_block = 0;  ///< Valid iff `evicted`.
  CoreId victim_owner = kInvalidCore;
  int way = -1;                ///< Way hit or filled; -1 if insertion failed.
};

class SetAssocCache {
 public:
  /// `sets` need not be a power of two (callers pass pre-computed indices).
  /// Throws std::invalid_argument unless `sets` >= 1 and `ways` is in
  /// [1, 32] (the width of a validity mask and of a rank row).
  SetAssocCache(std::uint32_t sets, int ways);

  std::uint32_t sets() const { return sets_; }
  int ways() const { return ways_; }
  std::uint64_t capacity_lines() const { return std::uint64_t{sets_} * ways_; }

  /// Probe only: true iff (set, block) is resident.  Does not touch LRU.
  bool contains(std::uint32_t set, BlockAddr block) const {
    return match_ways(set, block) != 0;
  }

  /// Demand access: on hit, promotes the line to MRU and returns hit=true.
  /// On miss, inserts `block` for `owner`, choosing the LRU victim among
  /// `insert_mask` ways (invalid ways preferred).  An empty mask records the
  /// miss but does not allocate (the access bypasses the cache).
  ///
  /// `evict_pref` supports occupancy-based fine-grained partitioning
  /// (PriSM / futility-scaling style): when valid, the victim is the LRU
  /// line *owned by* that core (within the mask); if it holds no line in
  /// the set, selection falls back to plain masked LRU.
  ///
  /// The hit path lives here so callers inline the SIMD tag compare plus
  /// the MRU rank promote; the miss/fill path (miss_fill, cache.cpp) stays
  /// out of line to keep the inlined code small.
  AccessResult access(std::uint32_t set, BlockAddr block, CoreId owner, WayMask insert_mask,
                      CoreId evict_pref = kInvalidCore) {
    if (const std::uint32_t match = match_ways(set, block); match != 0) {
      const int i = std::countr_zero(match);
      simd::rank_promote(ranks_[set].lane, i);
      ++stats_.hits;
      return AccessResult{.hit = true, .way = i};
    }
    return miss_fill(set, block, owner, insert_mask, evict_pref);
  }

  /// Lookup without fill (e.g. remote probe).  Promotes to MRU on hit.
  bool touch(std::uint32_t set, BlockAddr block);

  /// Removes a single line if present; returns true if it was resident.
  bool invalidate(std::uint32_t set, BlockAddr block);

  /// Removes every line for which `pred(block, owner)` holds; returns count.
  /// `pred` is any callable — no std::function indirection on the sweep.
  template <typename Pred>
  std::uint64_t invalidate_if(Pred&& pred) {
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < sets_; ++s) {
      const std::size_t base = std::size_t{s} * static_cast<std::size_t>(ways_);
      std::uint32_t vm = valid_[s];
      while (vm != 0) {
        const int w = std::countr_zero(vm);
        vm &= vm - 1;
        const std::size_t idx = base + static_cast<std::size_t>(w);
        if (pred(blocks_[idx], owners_[idx])) {
          valid_[s] &= ~(std::uint32_t{1} << w);
          ++n;
        }
      }
    }
    stats_.invalidations += n;
    return n;
  }

  /// Number of resident lines owned by `core` (O(capacity); stats/tests).
  std::uint64_t lines_owned_by(CoreId core) const;

  /// Number of valid lines overall.
  std::uint64_t valid_lines() const;

  /// Invariant-checker support: invokes `fn(set, way, block, owner)` for
  /// every valid line, in (set, way) order.
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    for (std::uint32_t s = 0; s < sets_; ++s) {
      const std::size_t base = std::size_t{s} * static_cast<std::size_t>(ways_);
      std::uint32_t vm = valid_[s];
      while (vm != 0) {
        const int w = std::countr_zero(vm);
        vm &= vm - 1;
        const std::size_t idx = base + static_cast<std::size_t>(w);
        fn(s, w, blocks_[idx], owners_[idx]);
      }
    }
  }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// Prefetch hint for a set's SoA rows (tags, ranks, owners, validity
  /// word).  Side-effect-free: the access pipeline in Chip::do_access_batch
  /// issues this for the mapped set before the mesh/mask computations so
  /// the tag row is L1-resident by the time access() compares it.
  void prefetch_set(std::uint32_t set) const {
    const std::size_t base = std::size_t{set} * static_cast<std::size_t>(ways_);
    simd::prefetch_read(blocks_.data() + base);
    simd::prefetch_write(ranks_.data() + set);
    simd::prefetch_read(owners_.data() + base);
    simd::prefetch_write(valid_.data() + set);
  }

 private:
  /// Cold half of access(): miss accounting, victim choice and line fill.
  AccessResult miss_fill(std::uint32_t set, BlockAddr block, CoreId owner,
                         WayMask insert_mask, CoreId evict_pref);

  /// Bitmask of ways whose valid tag equals `block` (0 or one bit set).
  /// The tag compare is exact u64 equality, so the vector backends in
  /// common/simd.hpp return bit-identical masks to the scalar loop
  /// (-DDELTA_NO_SIMD builds) on every input — verified against the frozen
  /// legacy oracle by tests/test_sweep.cpp and by micro_throughput's
  /// replay, which runs before it times this kernel against its floors.
  std::uint32_t match_ways(std::uint32_t set, BlockAddr block) const {
    const BlockAddr* b = blocks_.data() + std::size_t{set} * static_cast<std::size_t>(ways_);
    return simd::match_u64(b, ways_, block) & valid_[set];
  }

  /// One set's recency ranks; aligned so a row never straddles a line.
  struct alignas(simd::kRankLanes) RankRow {
    std::uint8_t lane[simd::kRankLanes];
  };

  std::uint32_t sets_;
  int ways_;
  std::vector<BlockAddr> blocks_;        ///< SoA tags, set-major.
  std::vector<CoreId> owners_;           ///< SoA owner tags, set-major.
  std::vector<std::uint32_t> valid_;     ///< Per-set validity bitmask.
  std::vector<RankRow> ranks_;           ///< Per-set recency ranks.
  CacheStats stats_;
};

}  // namespace delta::mem
