#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mem/cache.hpp"
#include "mem/replacement.hpp"

namespace delta::mem {
namespace {

TEST(Cache, MissThenHit) {
  SetAssocCache c(4, 2);
  EXPECT_FALSE(c.access(0, 100, 0, full_mask(2)).hit);
  EXPECT_TRUE(c.access(0, 100, 0, full_mask(2)).hit);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEvictionOrder) {
  SetAssocCache c(1, 2);
  c.access(0, 1, 0, full_mask(2));
  c.access(0, 2, 0, full_mask(2));
  c.access(0, 1, 0, full_mask(2));  // 1 is now MRU; 2 is LRU.
  c.access(0, 3, 0, full_mask(2));  // Evicts 2.
  EXPECT_TRUE(c.contains(0, 1));
  EXPECT_FALSE(c.contains(0, 2));
  EXPECT_TRUE(c.contains(0, 3));
}

TEST(Cache, LruOrderHoldsOverLongRuns) {
  // Recency is a per-set rank, not a counter, so no run length can wrap it
  // and make an old line look recent.  Drive each line of a 2-way set far
  // past 2^22 hits in turn: the other line must still be the victim.
  constexpr int kHits = (1 << 22) + 1;
  SetAssocCache c(1, 2);
  c.access(0, 1, 0, full_mask(2));
  c.access(0, 2, 0, full_mask(2));
  for (int i = 0; i < kHits; ++i) c.access(0, 1, 0, full_mask(2));
  auto res = c.access(0, 3, 0, full_mask(2));
  EXPECT_TRUE(res.evicted);
  EXPECT_EQ(res.victim_block, 2u);
  for (int i = 0; i < kHits; ++i) c.access(0, 3, 0, full_mask(2));
  res = c.access(0, 4, 0, full_mask(2));
  EXPECT_TRUE(res.evicted);
  EXPECT_EQ(res.victim_block, 1u);
  EXPECT_TRUE(c.contains(0, 3));
  EXPECT_TRUE(c.contains(0, 4));
  EXPECT_EQ(c.stats().hits, 2u * kHits);
}

TEST(Cache, RejectsOutOfRangeGeometry) {
  // 16 ways is the width of a set record's rows.
  try {
    SetAssocCache(1, 17);
    ADD_FAILURE() << "17 ways accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[1, 16]"), std::string::npos) << e.what();
  }
  EXPECT_THROW(SetAssocCache(1, 0), std::invalid_argument);
  EXPECT_THROW(SetAssocCache(1, -1), std::invalid_argument);
  EXPECT_THROW(SetAssocCache(0, 4), std::invalid_argument);
  EXPECT_NO_THROW(SetAssocCache(1, 1));
  SetAssocCache wide(1, 16);
  for (BlockAddr b = 0; b < 16; ++b) wide.access(0, b, 0, full_mask(16));
  wide.access(0, 0, 0, full_mask(16));  // Block 1 is now the LRU line.
  const auto res = wide.access(0, 16, 0, full_mask(16));
  EXPECT_TRUE(res.evicted);
  EXPECT_EQ(res.victim_block, 1u);
}

TEST(Cache, FortyBitTagsAndByteOwners) {
  // Tags keep 40 bits: blocks that share their low 32 bits but differ in
  // bits 32-39 are distinct lines, and the largest block and owner that
  // fit round-trip through eviction.
  SetAssocCache c(1, 4);
  const BlockAddr low = 0x89abcdefULL;
  for (int i = 0; i < 4; ++i)
    EXPECT_FALSE(c.access(0, (BlockAddr{1} << 32) * static_cast<BlockAddr>(i) | low, i,
                          full_mask(4)).hit);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(c.contains(0, (BlockAddr{1} << 32) * static_cast<BlockAddr>(i) | low));
  EXPECT_FALSE(c.contains(0, (BlockAddr{4} << 32) | low));
  const BlockAddr top = (BlockAddr{1} << 40) - 1;
  c.access(0, top, 254, full_mask(4));  // Evicts the LRU line (owner 0).
  // Touch owners 1-3 so owner 254's line is the LRU one.
  for (int i = 1; i < 4; ++i)
    EXPECT_TRUE(c.touch(0, (BlockAddr{1} << 32) * static_cast<BlockAddr>(i) | low));
  const auto res = c.access(0, 5, 7, full_mask(4));
  ASSERT_TRUE(res.evicted);
  EXPECT_EQ(res.victim_block, top);
  EXPECT_EQ(res.victim_owner, 254);
  std::uint64_t seen = 0;
  c.for_each_line([&](std::uint32_t, int, BlockAddr b, CoreId o) {
    if (b == low) ADD_FAILURE() << "evicted line still visible";
    seen += o >= 0 ? 1 : 0;
  });
  EXPECT_EQ(seen, 4u);
}

TEST(Cache, MissRejectsBlocksAndOwnersThatDoNotFitTheRecord) {
  SetAssocCache c(2, 4);
  const BlockAddr limit = BlockAddr{1} << 40;
  EXPECT_THROW(c.access(0, limit, 0, full_mask(4)), std::out_of_range);
  EXPECT_THROW(c.access(0, ~BlockAddr{0}, 0, full_mask(4)), std::out_of_range);
  EXPECT_THROW(c.access(0, 1, 255, full_mask(4)), std::out_of_range);
  EXPECT_THROW(c.access(0, 1, kInvalidCore, full_mask(4)), std::out_of_range);
  // Even a bypassing miss is rejected, and nothing was counted or filled.
  EXPECT_THROW(c.access(0, limit, 0, 0), std::out_of_range);
  EXPECT_EQ(c.stats().misses, 0u);
  EXPECT_EQ(c.valid_lines(), 0u);
  // A wider block never aliases the resident line with its low 40 bits.
  EXPECT_FALSE(c.access(0, limit - 1, 0, full_mask(4)).hit);
  EXPECT_FALSE(c.contains(0, (limit - 1) | limit));
  EXPECT_FALSE(c.touch(0, (limit - 1) | limit));
  EXPECT_FALSE(c.invalidate(0, (limit - 1) | limit));
  EXPECT_THROW(c.access(0, (limit - 1) | limit, 0, full_mask(4)), std::out_of_range);
  EXPECT_TRUE(c.contains(0, limit - 1));
}

TEST(Cache, HitPromotesToMru) {
  SetAssocCache c(1, 3);
  c.access(0, 1, 0, full_mask(3));
  c.access(0, 2, 0, full_mask(3));
  c.access(0, 3, 0, full_mask(3));
  c.access(0, 1, 0, full_mask(3));  // Promote 1.
  c.access(0, 4, 0, full_mask(3));  // Should evict 2 (LRU), not 1.
  EXPECT_TRUE(c.contains(0, 1));
  EXPECT_FALSE(c.contains(0, 2));
}

TEST(Cache, WayMaskRestrictsInsertionButNotLookup) {
  SetAssocCache c(1, 4);
  // Core 0 owns ways {0,1}; core 1 owns ways {2,3}.
  const WayMask m0 = 0b0011, m1 = 0b1100;
  c.access(0, 10, 0, m0);
  c.access(0, 11, 0, m0);
  c.access(0, 20, 1, m1);
  c.access(0, 21, 1, m1);
  // Core 1 inserting more evicts only core 1's lines.
  c.access(0, 22, 1, m1);
  EXPECT_TRUE(c.contains(0, 10));
  EXPECT_TRUE(c.contains(0, 11));
  EXPECT_FALSE(c.contains(0, 20));
  // Lookup across partitions: core 0 hits core 1's line.
  EXPECT_TRUE(c.access(0, 21, 0, m0).hit);
}

TEST(Cache, EmptyMaskBypasses) {
  SetAssocCache c(1, 2);
  const auto res = c.access(0, 7, 0, 0);
  EXPECT_FALSE(res.hit);
  EXPECT_EQ(res.way, -1);
  EXPECT_FALSE(c.contains(0, 7));
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, VictimPrefersInvalidWays) {
  SetAssocCache c(1, 4);
  c.access(0, 1, 0, full_mask(4));
  const auto res = c.access(0, 2, 0, full_mask(4));
  EXPECT_FALSE(res.evicted);
  EXPECT_TRUE(c.contains(0, 1));
}

TEST(Cache, EvictionReportsVictim) {
  SetAssocCache c(1, 1);
  c.access(0, 5, 3, full_mask(1));
  const auto res = c.access(0, 6, 4, full_mask(1));
  EXPECT_TRUE(res.evicted);
  EXPECT_EQ(res.victim_block, 5u);
  EXPECT_EQ(res.victim_owner, 3);
}

TEST(Cache, InvalidateSingleLine) {
  SetAssocCache c(2, 2);
  c.access(1, 9, 0, full_mask(2));
  EXPECT_TRUE(c.invalidate(1, 9));
  EXPECT_FALSE(c.contains(1, 9));
  EXPECT_FALSE(c.invalidate(1, 9));
  EXPECT_EQ(c.stats().invalidations, 1u);
}

TEST(Cache, InvalidateIfSweepsByOwner) {
  SetAssocCache c(8, 4);
  for (BlockAddr b = 0; b < 32; ++b)
    c.access(static_cast<std::uint32_t>(b % 8), b, static_cast<CoreId>(b % 2),
             full_mask(4));
  const std::uint64_t n = c.invalidate_if(1, [](BlockAddr) { return true; });
  EXPECT_EQ(n, 16u);
  EXPECT_EQ(c.lines_owned_by(1), 0u);
  EXPECT_EQ(c.lines_owned_by(0), 16u);
  // The predicate sees only the owner's lines, and an owner no line can
  // carry matches nothing.
  EXPECT_EQ(c.invalidate_if(0, [](BlockAddr b) { return b % 4 == 0; }), 8u);
  EXPECT_EQ(c.lines_owned_by(0), 8u);
  for (const CoreId none : {kInvalidCore, CoreId{255}, CoreId{1000}})
    EXPECT_EQ(c.invalidate_if(none, [](BlockAddr) { return true; }), 0u);
  EXPECT_EQ(c.valid_lines(), 8u);
  EXPECT_EQ(c.stats().invalidations, 24u);
}

// invalidate_if filters each set by its owner row (simd::match_u8) before
// it calls the predicate.  On random banks of every way count, with
// owners at the byte edges and stale owner bytes on invalidated ways, it
// must drop exactly the lines a brute-force sweep over every line drops.
TEST(CacheProperty, InvalidateIfMatchesBruteForceSweep) {
  Rng rng(0x1a7u);
  for (int iter = 0; iter < 60; ++iter) {
    const int ways = 1 + static_cast<int>(rng.below(16));
    const auto sets = static_cast<std::uint32_t>(1 + rng.below(16));
    const CoreId owners[] = {0, 1, 2, 7, 253, 254};
    SetAssocCache c(sets, ways);
    for (int a = 0; a < 40 * ways; ++a) {
      const auto set = static_cast<std::uint32_t>(rng.below(sets));
      const BlockAddr block =
          rng.below(std::uint64_t{4} * static_cast<std::uint64_t>(ways)) * sets + set;
      const CoreId owner = owners[rng.below(6)];
      c.access(set, block, owner, static_cast<WayMask>(rng()) & full_mask(ways));
      // Invalidated ways keep their owner byte; the sweep must skip them.
      if (rng.below(8) == 0) c.invalidate(set, block);
    }
    const CoreId target = owners[rng.below(6)];
    const std::uint64_t salt = rng();
    const auto pred = [salt](BlockAddr b) {
      return ((b * 0x9e3779b97f4a7c15ull) ^ salt) >> 63;
    };

    // Brute force on a copy: every valid line, owner and predicate.
    SetAssocCache brute = c;
    std::vector<std::pair<std::uint32_t, BlockAddr>> doomed;
    brute.for_each_line([&](std::uint32_t s, int, BlockAddr b, CoreId o) {
      if (o == target && pred(b)) doomed.emplace_back(s, b);
    });
    for (const auto& [s, b] : doomed) ASSERT_TRUE(brute.invalidate(s, b));

    const std::uint64_t n = c.invalidate_if(target, pred);
    ASSERT_EQ(n, doomed.size()) << "iter=" << iter << " ways=" << ways;
    ASSERT_EQ(c.stats().invalidations, brute.stats().invalidations);
    std::vector<std::tuple<std::uint32_t, int, BlockAddr, CoreId>> got, want;
    c.for_each_line([&](std::uint32_t s, int w, BlockAddr b, CoreId o) {
      got.emplace_back(s, w, b, o);
    });
    brute.for_each_line([&](std::uint32_t s, int w, BlockAddr b, CoreId o) {
      want.emplace_back(s, w, b, o);
    });
    ASSERT_EQ(got, want) << "iter=" << iter << " ways=" << ways;
  }
}

// The validity word lives inside each set record, next to the owner bytes
// (byte 48 of the metadata line).  Fill every way with the widest tag and
// owner values, then check that every validity query and sweep sees
// exactly the lines it should, set by set, from one way to the row edge.
TEST(Cache, InRecordValidityWordAtEveryRecordShape) {
  constexpr std::uint32_t kSets = 8;
  for (const int ways : {1, 2, 15, 16}) {
    SetAssocCache c(kSets, ways);
    const WayMask all = full_mask(ways);
    // Block (set, way): the high tag byte 0xFF, distinct low words, owner
    // 254 on odd ways (the largest owner byte) and 0 on even ways.
    const auto block = [](std::uint32_t set, int way) {
      return (BlockAddr{0xFF} << 32) | (std::uint64_t{set} << 8) |
             static_cast<std::uint64_t>(way);
    };
    const auto owner = [](int way) { return way % 2 == 1 ? CoreId{254} : CoreId{0}; };
    for (std::uint32_t s = 0; s < kSets; ++s)
      for (int w = 0; w < ways; ++w) {
        const AccessResult r = c.access(s, block(s, w), owner(w), all);
        ASSERT_FALSE(r.hit);
        ASSERT_FALSE(r.evicted) << "ways=" << ways;  // Invalid ways fill first.
        ASSERT_EQ(r.way, w) << "ways=" << ways;
      }
    ASSERT_EQ(c.valid_lines(), std::uint64_t{kSets} * ways) << "ways=" << ways;

    // for_each_line visits every line in (set, way) order with its block
    // and owner intact.
    std::uint64_t visited = 0;
    c.for_each_line([&](std::uint32_t s, int w, BlockAddr b, CoreId o) {
      ASSERT_EQ(visited, std::uint64_t{s} * ways + static_cast<std::uint64_t>(w));
      ASSERT_EQ(b, block(s, w)) << "ways=" << ways;
      ASSERT_EQ(o, owner(w)) << "ways=" << ways;
      ++visited;
    });
    ASSERT_EQ(visited, c.valid_lines());

    // invalidate clears one bit of one set's word: the first and last way
    // of set 2, leaving its neighbours whole.
    ASSERT_TRUE(c.invalidate(2, block(2, 0)));
    if (ways > 1) {
      ASSERT_TRUE(c.invalidate(2, block(2, ways - 1)));
    }
    const std::uint64_t dropped = ways > 1 ? 2 : 1;
    EXPECT_EQ(c.valid_lines(), std::uint64_t{kSets} * ways - dropped) << "ways=" << ways;
    EXPECT_FALSE(c.contains(2, block(2, 0)));
    EXPECT_TRUE(c.contains(1, block(1, 0)));
    EXPECT_TRUE(c.contains(3, block(3, ways - 1)));

    // invalidate_if drops every owner-254 line still valid.
    std::uint64_t odd_valid = 0;
    c.for_each_line(
        [&](std::uint32_t, int, BlockAddr, CoreId o) { odd_valid += o == 254; });
    const std::uint64_t n = c.invalidate_if(254, [](BlockAddr) { return true; });
    EXPECT_EQ(n, odd_valid) << "ways=" << ways;
    EXPECT_EQ(c.lines_owned_by(254), 0u) << "ways=" << ways;
    c.for_each_line([&](std::uint32_t, int w, BlockAddr, CoreId o) {
      ASSERT_EQ(w % 2, 0) << "ways=" << ways;
      ASSERT_EQ(o, 0);
    });

    // A refill takes an invalid way without evicting, and sets the bit back.
    const std::uint64_t before = c.valid_lines();
    const AccessResult r = c.access(2, block(2, 0), owner(0), all);
    EXPECT_FALSE(r.evicted) << "ways=" << ways;
    EXPECT_EQ(r.way, 0) << "ways=" << ways;
    EXPECT_EQ(c.valid_lines(), before + 1) << "ways=" << ways;
    EXPECT_TRUE(c.contains(2, block(2, 0)));
  }
}

TEST(Cache, OwnerTagTracksInserter) {
  SetAssocCache c(1, 2);
  c.access(0, 1, 7, full_mask(2));
  EXPECT_EQ(c.lines_owned_by(7), 1u);
  EXPECT_EQ(c.valid_lines(), 1u);
}

TEST(Cache, TouchPromotesWithoutFill) {
  SetAssocCache c(1, 2);
  EXPECT_FALSE(c.touch(0, 3));
  c.access(0, 3, 0, full_mask(2));
  EXPECT_TRUE(c.touch(0, 3));
  EXPECT_EQ(c.stats().misses, 1u);  // touch() does not count demand stats.
}

// Property: with a single ring of blocks larger than capacity accessed
// cyclically under LRU, the hit rate is zero (the classic LRU loop pathology
// the paper's loop-profile applications rely on).
TEST(CacheProperty, SequentialLoopBiggerThanCacheNeverHits) {
  SetAssocCache c(16, 4);  // 64-line capacity.
  const int loop_lines = 80;
  for (int pass = 0; pass < 5; ++pass)
    for (int i = 0; i < loop_lines; ++i)
      c.access(static_cast<std::uint32_t>(i % 16), static_cast<BlockAddr>(i),
               0, full_mask(4));
  EXPECT_EQ(c.stats().hits, 0u);
}

TEST(CacheProperty, SequentialLoopFittingAlwaysHitsAfterWarmup) {
  SetAssocCache c(16, 4);
  const int loop_lines = 64;
  for (int i = 0; i < loop_lines; ++i)
    c.access(static_cast<std::uint32_t>(i % 16), static_cast<BlockAddr>(i), 0,
             full_mask(4));
  c.reset_stats();
  for (int pass = 0; pass < 3; ++pass)
    for (int i = 0; i < loop_lines; ++i)
      c.access(static_cast<std::uint32_t>(i % 16), static_cast<BlockAddr>(i), 0,
               full_mask(4));
  EXPECT_EQ(c.stats().misses, 0u);
}

// Parameterized property: uniform random accesses over a footprint F with
// capacity C converge to a hit rate of roughly C/F.
class UniformHitRate : public ::testing::TestWithParam<int> {};

TEST_P(UniformHitRate, MatchesCapacityRatio) {
  const int footprint_lines = GetParam();
  SetAssocCache c(64, 8);  // 512-line capacity.
  Rng rng(99);
  for (int i = 0; i < 200'000; ++i) {
    const BlockAddr b = rng.below(static_cast<std::uint64_t>(footprint_lines));
    c.access(static_cast<std::uint32_t>(b % 64), b, 0, full_mask(8));
  }
  c.reset_stats();
  for (int i = 0; i < 200'000; ++i) {
    const BlockAddr b = rng.below(static_cast<std::uint64_t>(footprint_lines));
    c.access(static_cast<std::uint32_t>(b % 64), b, 0, full_mask(8));
  }
  const double expect = std::min(1.0, 512.0 / footprint_lines);
  EXPECT_NEAR(1.0 - c.stats().miss_rate(), expect, 0.08);
}

INSTANTIATE_TEST_SUITE_P(Footprints, UniformHitRate,
                         ::testing::Values(256, 512, 1024, 2048, 8192));

}  // namespace
}  // namespace delta::mem
