// Set-associative cache with owner-tagged lines and way-mask constrained
// insertion — the building block for every LLC bank in the simulator.
//
// Lookups ("all cores can access data irrespective of which way it resides",
// Sec. II-C2) scan the whole set; insertion picks the LRU victim among the
// ways the inserting core's way-partition mask allows.  Lines remember both
// the block address and the owning core so that DELTA's bulk-invalidation
// unit can sweep remapped ranges without auxiliary structures.
//
// Layout: one 64-byte-aligned 128-byte record per set, validity word
// included — two cache lines:
//
//   line 0: the low 32 bits of each way's tag (16 x u32);
//   line 1: three 16-lane byte rows — the recency ranks (0 = MRU;
//           common/simd.hpp rank_promote / rank_oldest), tag bits 32-39
//           of each way and each way's owner (0xFF = kInvalidCore) — and
//           at byte 48 the validity word (bit w = way w holds a line): 52
//           of 64 bytes used.
//
// A hit reads the record's two lines and nothing else: one
// simd::match_tag40 compare plus one rank promote; a miss picks its victim
// with one masked rank scan.  Tags are 40 bits, so blocks must stay below
// 2^40 and owners in [0, 254] (a miss throws std::out_of_range otherwise);
// every in-tree stream stays below 2^35.  The ranks are exact LRU: every
// touch makes its way the unique MRU and keeps the order of the rest, so
// no two ways of a set ever tie, and a rank row has no counter to overflow
// however long the run.  Supports 1 to 16 ways (the paper's bank has 16).
//
// Every demand access runs one hit-or-fill implementation, Kernel::access
// (below the class), inlined.  The access engine's bank merge calls it
// directly; access() wraps it for callers that want an AccessResult.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
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
  /// [1, 16] (the lanes of a set record's rows).
  SetAssocCache(std::uint32_t sets, int ways);

  std::uint32_t sets() const { return sets_; }
  int ways() const { return ways_; }

  /// Probe only: true iff (set, block) is resident.  Does not touch LRU.
  bool contains(std::uint32_t set, BlockAddr block) const {
    return match_ways(set, block) != 0;
  }

  /// Demand access: on hit, promotes the line to MRU and returns hit=true.
  /// On miss, inserts `block` for `owner`, choosing the LRU victim among
  /// `insert_mask` ways (invalid ways preferred).  An empty mask records the
  /// miss but does not allocate (the access bypasses the cache).  A miss
  /// throws std::out_of_range, before any state changes, when `block` is
  /// at or above 2^40 or `owner` is outside [0, 254] (the tag and owner
  /// widths of a set record).  A thin wrapper over Kernel::access, the one
  /// hit-or-fill implementation, for callers that want the fill's details
  /// (the SPLASH estimator's two baselines, tests).
  AccessResult access(std::uint32_t set, BlockAddr block, CoreId owner,
                      WayMask insert_mask);

  /// The hit-or-fill kernel; see the class below.
  class Kernel;

  /// Lookup without fill (e.g. remote probe).  Promotes to MRU on hit.
  bool touch(std::uint32_t set, BlockAddr block);

  /// Removes a single line if present; returns true if it was resident.
  bool invalidate(std::uint32_t set, BlockAddr block);

  /// Removes every line owned by `owner` for which `pred(block)` holds;
  /// returns count.  Each set's owner row is matched in one byte compare
  /// (simd::match_u8), so `pred` runs only on the owner's valid lines.
  /// `pred` is any callable — no std::function indirection on the sweep —
  /// returning bool or 0/1.  Its results are ORed into the set's drop mask
  /// without a branch, so a predicate that is itself branch-free (a table
  /// lookup) costs no misprediction per line; the valid bits are cleared
  /// with one AND and counted with one popcount.
  template <typename Pred>
  std::uint64_t invalidate_if(CoreId owner, Pred&& pred) {
    if (owner < 0 || owner >= CoreId{kNoOwner}) return 0;  // Owns no line.
    const auto key = static_cast<std::uint8_t>(owner);
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < sets_; ++s) {
      std::uint32_t& valid = valid_word(s);
      const std::uint32_t own = simd::match_u8(owners(s), kLanes, key) & valid;
      std::uint32_t drop = 0;
      for (std::uint32_t vm = own; vm != 0; vm &= vm - 1) {
        const int w = std::countr_zero(vm);
        drop |= static_cast<std::uint32_t>(static_cast<bool>(pred(block_at(s, w)))) << w;
      }
      valid &= ~drop;
      n += static_cast<std::uint64_t>(std::popcount(drop));
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
      for (std::uint32_t vm = valid_word(s); vm != 0; vm &= vm - 1) {
        const int w = std::countr_zero(vm);
        fn(s, w, block_at(s, w), owner_at(s, w));
      }
    }
  }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

 private:
  /// Bitmask of ways whose valid tag equals `block` (0 or one bit set).
  /// The 40-bit compare is exact, so the vector backend in common/simd.hpp
  /// returns bit-identical masks to the scalar loop (-DDELTA_NO_SIMD
  /// builds) on every input — verified against the frozen legacy oracle by
  /// tests/test_sweep.cpp and by micro_throughput's replay, which runs
  /// before it times the kernel against its floors.  Used by touch() and
  /// invalidate(); Kernel::access runs the same compare at constant width.
  std::uint32_t match_ways(std::uint32_t set, BlockAddr block) const {
    return simd::match_tag40(low_tags(set), high_tags(set), ways_, block) &
           valid_word(set);
  }

  /// One 64-byte line of record storage; std::allocator honours the
  /// over-alignment, so every record starts on a cache-line boundary.
  struct alignas(64) Line {
    std::uint32_t word[16];
  };

  /// Byte offsets within a set record, shared by the accessors below and
  /// the Kernel: the low-tag row is the record's first line; the rank row
  /// starts the second, followed by the high-tag row, the owner row and the
  /// validity word.
  static constexpr int kLanes = simd::kRowLanes;
  static constexpr std::size_t kRanksOffset = 4 * kLanes;
  static constexpr std::size_t kValidOffset = kRanksOffset + 3 * kLanes;
  static constexpr std::size_t kStride = 2 * sizeof(Line);
  static_assert(kValidOffset + sizeof(std::uint32_t) <= kStride);

  std::uint8_t* record(std::uint32_t set) {
    return reinterpret_cast<std::uint8_t*>(records_.data()) +
           std::size_t{set} * kStride;
  }
  const std::uint8_t* record(std::uint32_t set) const {
    return reinterpret_cast<const std::uint8_t*>(records_.data()) +
           std::size_t{set} * kStride;
  }
  std::uint32_t* low_tags(std::uint32_t set) {
    return reinterpret_cast<std::uint32_t*>(record(set));
  }
  const std::uint32_t* low_tags(std::uint32_t set) const {
    return reinterpret_cast<const std::uint32_t*>(record(set));
  }
  std::uint8_t* ranks(std::uint32_t set) { return record(set) + kRanksOffset; }
  const std::uint8_t* ranks(std::uint32_t set) const {
    return record(set) + kRanksOffset;
  }
  const std::uint8_t* high_tags(std::uint32_t set) const { return ranks(set) + kLanes; }
  std::uint8_t* owners(std::uint32_t set) { return ranks(set) + 2 * kLanes; }
  const std::uint8_t* owners(std::uint32_t set) const { return ranks(set) + 2 * kLanes; }
  /// Bit w set iff way w holds a line.  The word is one of the record's
  /// Line words, so the u32 access stays within its own type.
  std::uint32_t& valid_word(std::uint32_t set) {
    return *reinterpret_cast<std::uint32_t*>(record(set) + kValidOffset);
  }
  std::uint32_t valid_word(std::uint32_t set) const {
    return *reinterpret_cast<const std::uint32_t*>(record(set) + kValidOffset);
  }

  /// The 40-bit tag and the owner of a way, from its record rows.
  static BlockAddr tag_of(const std::uint32_t* low, const std::uint8_t* high, int way) {
    return (BlockAddr{high[way]} << 32) | low[way];
  }
  static CoreId owner_of(std::uint8_t o) {
    return o == kNoOwner ? kInvalidCore : CoreId{o};
  }
  BlockAddr block_at(std::uint32_t set, int way) const {
    return tag_of(low_tags(set), high_tags(set), way);
  }
  CoreId owner_at(std::uint32_t set, int way) const { return owner_of(owners(set)[way]); }

  /// The miss-path range check's failure: throws std::out_of_range naming
  /// the block or owner that does not fit a set record.  Out of line and
  /// cold, so the inlined kernel keeps only the compare.
  [[noreturn, gnu::cold]] static void throw_unfit(BlockAddr block, CoreId owner);

  /// Owner byte of a line that was never filled.
  static constexpr std::uint8_t kNoOwner = 0xFF;

  std::uint32_t sets_;
  int ways_;
  std::vector<Line> records_;  ///< Two lines per set.
  CacheStats stats_;
};

/// The hit-or-fill kernel: the one implementation of a demand access, run
/// by the access engine's bank merge (sim/intra.hpp) directly and by
/// SetAssocCache::access through a wrapper.  It is a by-value view of one
/// bank — the record base, the way mask and its own hit/miss/eviction
/// counts — so a caller that keeps it in a local keeps all of it in
/// registers: the rank row is stored through a vector type and the owner
/// and high-tag rows through bytes, both of which may alias anything, and
/// a loop that read the geometry through the cache object would reload it
/// after every access.  The tag compare and the rank kernels run at the
/// record's constant width; lanes at or above ways() are never valid, so
/// comparing all kLanes lanes and masking with the validity word is the
/// ways()-wide compare.  The counts reach the cache's stats() when the
/// kernel is destroyed.
class SetAssocCache::Kernel {
 public:
  explicit Kernel(SetAssocCache& cache)
      : base_(cache.record(0)),
        ways_mask_(full_mask(cache.ways_)),
        stats_(&cache.stats_) {}
  ~Kernel() {
    stats_->hits += hits_;
    stats_->misses += misses_;
    stats_->evictions += evictions_;
  }
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// SetAssocCache::access's contract, returning only whether it hit.
  /// When `res` is non-null it also receives the AccessResult.
  [[gnu::always_inline]] bool access(std::uint32_t set, BlockAddr block, CoreId owner,
                                     WayMask insert_mask, AccessResult* res = nullptr) {
    std::uint8_t* const rec = record(set);
    auto* const low = reinterpret_cast<std::uint32_t*>(rec);
    std::uint8_t* const ranks = rec + kRanksOffset;
    std::uint8_t* const high = ranks + kLanes;
    std::uint8_t* const owners = high + kLanes;
    auto& valid = *reinterpret_cast<std::uint32_t*>(rec + kValidOffset);
    const std::uint32_t v = valid;
    if (const std::uint32_t match = simd::match_tag40(low, high, kLanes, block) & v;
        match != 0) {
      const int way = std::countr_zero(match);
      simd::rank_promote(ranks, way);
      ++hits_;
      if (res != nullptr) *res = AccessResult{.hit = true, .way = way};
      return true;
    }
    if (block >= simd::kTag40Limit || owner < 0 || owner >= CoreId{kNoOwner}) [[unlikely]]
      throw_unfit(block, owner);
    ++misses_;
    const std::uint32_t eligible = insert_mask & ways_mask_;
    if (eligible == 0) return false;  // Bypass: nowhere to allocate.

    // Prefer an invalid eligible way; otherwise evict the eligible LRU.
    int victim;
    if (const std::uint32_t free = eligible & ~v; free != 0) {
      victim = std::countr_zero(free);
    } else {
      victim = simd::rank_oldest(ranks, eligible);
      ++evictions_;
      if (res != nullptr) {
        res->evicted = true;
        res->victim_block = tag_of(low, high, victim);
        res->victim_owner = owner_of(owners[victim]);
      }
    }
    low[victim] = static_cast<std::uint32_t>(block);
    high[victim] = static_cast<std::uint8_t>(block >> 32);
    owners[victim] = static_cast<std::uint8_t>(owner);
    valid = v | std::uint32_t{1} << victim;
    simd::rank_promote(ranks, victim);
    if (res != nullptr) res->way = victim;
    return false;
  }

  /// Prefetch hint for a set: its record's tag line and its metadata line
  /// (ranks, high tags, owners, validity word).  Side-effect-free: the
  /// bank merge issues it a few accesses ahead of access() so the set is
  /// L1-resident by the time it is compared.
  void prefetch(std::uint32_t set) const {
    const std::uint8_t* const rec = record(set);
    simd::prefetch_read(rec);
    simd::prefetch_write(rec + kRanksOffset);
  }

 private:
  std::uint8_t* record(std::uint32_t set) const {
    return base_ + std::size_t{set} * kStride;
  }

  std::uint8_t* base_;
  WayMask ways_mask_;
  CacheStats* stats_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace delta::mem
