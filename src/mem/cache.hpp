// Set-associative cache with owner-tagged lines and way-mask constrained
// insertion — the building block for every LLC bank in the simulator.
//
// Lookups ("all cores can access data irrespective of which way it resides",
// Sec. II-C2) scan the whole set; insertion picks the LRU victim among the
// ways the inserting core's way-partition mask allows.  Lines remember both
// the block address and the owning core so that DELTA's bulk-invalidation
// unit can sweep remapped ranges without auxiliary structures.
//
// Layout: one 64-byte-aligned record per set, validity word included.  Up
// to 16 ways a record is two cache lines:
//
//   line 0: the low 32 bits of each way's tag (16 x u32);
//   line 1: three 16-lane byte rows — the recency ranks (0 = MRU;
//           common/simd.hpp rank_promote / rank_oldest), tag bits 32-39
//           of each way and each way's owner (0xFF = kInvalidCore) — and
//           at byte 48 the validity word (bit w = way w holds a line): 52
//           of 64 bytes used.
//
// At 17-32 ways the rows have 32 lanes: the low-tag row fills two lines,
// and two metadata lines hold the rank, high-tag and owner rows and, at
// byte 96, the validity word.  With L = simd::rank_lanes(ways) the stride
// is 4L + roundup64(3L + 4): 128 B up to 16 ways, 256 B for 17-32.  Up to 16 ways
// a hit reads the record's two lines and nothing else: one
// simd::match_tag40 compare plus one rank promote; a miss picks its victim
// with one masked rank scan.  Tags are 40 bits, so blocks must stay below 2^40 and owners
// in [0, 254] (miss_fill throws std::out_of_range otherwise); every
// in-tree stream stays below 2^35.  The ranks are exact LRU: every touch
// makes its way the unique MRU and keeps the order of the rest, so no two
// ways of a set ever tie, and a rank row has no counter to overflow
// however long the run.  Supports 1 to 32 ways.
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
  /// [1, 32] (the width of a validity mask and of a rank row).
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
  /// widths of a set record).
  ///
  /// The hit path lives here so callers inline the SIMD tag compare plus
  /// the MRU rank promote; the miss/fill path (miss_fill, cache.cpp) stays
  /// out of line to keep the inlined code small.
  AccessResult access(std::uint32_t set, BlockAddr block, CoreId owner, WayMask insert_mask) {
    if (const std::uint32_t match = match_ways(set, block); match != 0) {
      const int i = std::countr_zero(match);
      simd::rank_promote(ranks(set), lanes_, i);
      ++stats_.hits;
      return AccessResult{.hit = true, .way = i};
    }
    return miss_fill(set, block, owner, insert_mask);
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
      std::uint32_t& valid = valid_word(s);
      for (std::uint32_t vm = valid; vm != 0; vm &= vm - 1) {
        const int w = std::countr_zero(vm);
        if (pred(block_at(s, w), owner_at(s, w))) {
          valid &= ~(std::uint32_t{1} << w);
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
      for (std::uint32_t vm = valid_word(s); vm != 0; vm &= vm - 1) {
        const int w = std::countr_zero(vm);
        fn(s, w, block_at(s, w), owner_at(s, w));
      }
    }
  }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// Prefetch hint for a set: its record's tag line and its metadata line
  /// (ranks, high tags, owners, validity word).  Side-effect-free: the
  /// access engine's bank merge (sim/intra.hpp) issues it a few accesses
  /// ahead of access() so the set is L1-resident by the time it is
  /// compared.
  void prefetch_set(std::uint32_t set) const {
    simd::prefetch_read(low_tags(set));
    simd::prefetch_write(ranks(set));
  }

 private:
  /// Cold half of access(): miss accounting, victim choice and line fill.
  AccessResult miss_fill(std::uint32_t set, BlockAddr block, CoreId owner,
                         WayMask insert_mask);

  /// Bitmask of ways whose valid tag equals `block` (0 or one bit set).
  /// The 40-bit compare is exact, so the vector backend in common/simd.hpp
  /// returns bit-identical masks to the scalar loop (-DDELTA_NO_SIMD
  /// builds) on every input — verified against the frozen legacy oracle by
  /// tests/test_sweep.cpp and by micro_throughput's replay, which runs
  /// before it times this kernel against its floors.
  std::uint32_t match_ways(std::uint32_t set, BlockAddr block) const {
    return simd::match_tag40(low_tags(set), high_tags(set), ways_, block) &
           valid_word(set);
  }

  /// One 64-byte line of record storage; std::allocator honours the
  /// over-alignment, so every record starts on a cache-line boundary.
  struct alignas(64) Line {
    std::uint32_t word[16];
  };

  // Record rows of `set`.  The low-tag row is the record's first bytes;
  // the rank row starts at low_bytes_, followed by the high-tag row, the
  // owner row and the validity word, each row lanes_ bytes.
  std::uint8_t* record(std::uint32_t set) {
    return reinterpret_cast<std::uint8_t*>(records_.data()) + std::size_t{set} * stride_;
  }
  const std::uint8_t* record(std::uint32_t set) const {
    return reinterpret_cast<const std::uint8_t*>(records_.data()) + std::size_t{set} * stride_;
  }
  std::uint32_t* low_tags(std::uint32_t set) {
    return reinterpret_cast<std::uint32_t*>(record(set));
  }
  const std::uint32_t* low_tags(std::uint32_t set) const {
    return reinterpret_cast<const std::uint32_t*>(record(set));
  }
  std::uint8_t* ranks(std::uint32_t set) { return record(set) + low_bytes_; }
  const std::uint8_t* ranks(std::uint32_t set) const { return record(set) + low_bytes_; }
  std::uint8_t* high_tags(std::uint32_t set) { return ranks(set) + lanes_; }
  const std::uint8_t* high_tags(std::uint32_t set) const { return ranks(set) + lanes_; }
  std::uint8_t* owners(std::uint32_t set) { return high_tags(set) + lanes_; }
  const std::uint8_t* owners(std::uint32_t set) const { return high_tags(set) + lanes_; }
  /// Bit w set iff way w holds a line.  The word is one of the record's
  /// Line words, so the u32 access stays within its own type.
  std::uint32_t& valid_word(std::uint32_t set) {
    return *reinterpret_cast<std::uint32_t*>(record(set) + valid_offset_);
  }
  std::uint32_t valid_word(std::uint32_t set) const {
    return *reinterpret_cast<const std::uint32_t*>(record(set) + valid_offset_);
  }

  BlockAddr block_at(std::uint32_t set, int way) const {
    return (BlockAddr{high_tags(set)[way]} << 32) | low_tags(set)[way];
  }
  CoreId owner_at(std::uint32_t set, int way) const {
    const std::uint8_t o = owners(set)[way];
    return o == kNoOwner ? kInvalidCore : CoreId{o};
  }

  /// Owner byte of a line that was never filled.
  static constexpr std::uint8_t kNoOwner = 0xFF;

  std::uint32_t sets_;
  int ways_;
  int lanes_;                  ///< Lanes per row: simd::rank_lanes(ways), 16 or 32.
  std::size_t low_bytes_;      ///< 4 * lanes_: the low-tag row's lines.
  std::size_t valid_offset_;   ///< low_bytes_ + 3 * lanes_.
  std::size_t stride_;         ///< Bytes per set record.
  std::vector<Line> records_;  ///< stride_ / 64 lines per set.
  CacheStats stats_;
};

}  // namespace delta::mem
