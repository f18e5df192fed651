// The SIMD kernels (common/simd.hpp) promise bit-identity with their scalar
// references on every input — that is what lets the cache/UMON hot paths use
// them without perturbing the oracle replays.  These tests sweep widths,
// alignments, duplicate keys, and adversarial near-miss patterns against the
// references, and every way count from 1 to 16 for the rank kernels.  They
// run under both backends: the regular build compiles SSE2 on x86-64 and
// the CI scalar job (-DDELTA_NO_SIMD=ON) re-runs the same suite over the
// fallback.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace delta::simd {
namespace {

// Split 40-bit tag rows as a cache record lays them out: kRowLanes lanes
// each, all of which the vector kernel reads at any width.
struct TagRows {
  std::array<std::uint32_t, kRowLanes> lo{};
  std::array<std::uint8_t, kRowLanes> hi{};
  void set(int i, std::uint64_t tag) {
    lo[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(tag);
    hi[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(tag >> 32);
  }
  std::uint32_t match(int n, std::uint64_t key) const {
    return match_tag40(lo.data(), hi.data(), n, key);
  }
  std::uint32_t reference(int n, std::uint64_t key) const {
    return match_tag40_scalar(lo.data(), hi.data(), n, key);
  }
};

TEST(MatchTag40, AllWidthsSingleKeyAtEveryPosition) {
  const std::uint64_t key = 0x9a'0123abcdULL;
  for (int n = 0; n <= kRowLanes; ++n) {
    TagRows rows;
    for (int i = 0; i < n; ++i) rows.set(i, 0x01'11111111ULL * static_cast<std::uint64_t>(i + 1));
    for (int pos = 0; pos < n; ++pos) {
      TagRows hit = rows;
      hit.set(pos, key);
      const std::uint32_t ref = hit.reference(n, key);
      EXPECT_EQ(hit.match(n, key), ref) << "n=" << n << " pos=" << pos;
      EXPECT_EQ(ref, std::uint32_t{1} << pos);
    }
    // Absent key: no bit may be set.
    EXPECT_EQ(rows.match(n, key), 0u) << "n=" << n;
  }
}

TEST(MatchTag40, LanesPastTheWidthNeverMatch) {
  // The vector kernel reads the whole row; lanes at or past n must be
  // masked off even when they hold the key.
  const std::uint64_t key = 0x42'00000042ULL;
  TagRows rows;
  for (int i = 0; i < kRowLanes; ++i) rows.set(i, key);
  for (int n = 0; n <= kRowLanes; ++n) {
    const std::uint32_t want = (std::uint32_t{1} << n) - 1;
    EXPECT_EQ(rows.match(n, key), want) << "n=" << n;
    EXPECT_EQ(rows.reference(n, key), want) << "n=" << n;
  }
}

TEST(MatchTag40, LowWordOnlyAndHighByteOnlyMismatchesDoNotMatch) {
  // SSE2 builds the 40-bit compare from a 32-bit compare on the low row and
  // a byte compare on the high row; a tag that agrees with the key in one
  // half only is the interesting wrong-answer candidate.
  const std::uint64_t key = 0xc3'89abcdefULL;
  for (int n = 1; n <= kRowLanes; ++n) {
    TagRows rows;
    for (int i = 0; i < n; ++i)
      rows.set(i, i % 2 == 0 ? key ^ 0x00'00010000ULL    // Low word differs.
                             : key ^ 0x81'00000000ULL);  // High byte differs.
    EXPECT_EQ(rows.match(n, key), 0u) << "n=" << n;
    EXPECT_EQ(rows.reference(n, key), 0u) << "n=" << n;
  }
}

TEST(MatchTag40, KeysAtOrAbove2To40MatchNothing) {
  // Only 40 tag bits are stored: a wider key must not alias the tag that
  // shares its low 40 bits.
  TagRows rows;
  for (int i = 0; i < kRowLanes; ++i) rows.set(i, 0x12'34567890ULL);
  for (const std::uint64_t key :
       {0x12'34567890ULL | kTag40Limit, 0x12'34567890ULL | (kTag40Limit << 20), ~0ULL}) {
    for (int n : {1, 15, 16}) {
      EXPECT_EQ(rows.match(n, key), 0u) << "n=" << n << " key=" << key;
      EXPECT_EQ(rows.reference(n, key), 0u) << "n=" << n << " key=" << key;
    }
  }
  EXPECT_EQ(rows.match(kRowLanes, 0x12'34567890ULL), 0xFFFFu);
}

TEST(MatchTag40, DuplicateKeysSetEveryMatchingBit) {
  const std::uint64_t key = 0xfe'cafef00dULL;
  TagRows rows;
  for (int i = 0; i < kRowLanes; ++i)
    rows.set(i, (i % 3 == 0) ? key : key ^ 0xff'ffffffffULL);
  for (int n = 0; n <= kRowLanes; ++n)
    EXPECT_EQ(rows.match(n, key), rows.reference(n, key)) << "n=" << n;
}

TEST(MatchTag40, ExtremeValues) {
  const std::uint64_t vals[] = {0,           kTag40Limit - 1, 1,
                                0xff'00000000ULL, 0x00'ffffffffULL, 0x80'00000000ULL,
                                0x7f'ffffffffULL, 0x55'55555555ULL};
  TagRows rows;
  for (int i = 0; i < 8; ++i) rows.set(i, vals[i]);
  for (const std::uint64_t key : vals)
    EXPECT_EQ(rows.match(8, key), rows.reference(8, key)) << "key=" << key;
}

TEST(MatchTag40, RandomizedAgainstScalar) {
  Rng rng(0x51u);
  for (int iter = 0; iter < 20000; ++iter) {
    const int n = static_cast<int>(rng.below(kRowLanes + 1));  // 0..16
    // Draw from a tiny pool of tags that share low words or high bytes, so
    // matches, duplicates and half-matches are all common.
    const std::uint64_t a = rng.below(kTag40Limit);
    const std::array<std::uint64_t, 4> pool = {a, a ^ 0x01'00000000ULL, a ^ 0x1ULL,
                                               rng.below(kTag40Limit)};
    TagRows rows;
    for (int i = 0; i < kRowLanes; ++i) rows.set(i, pool[rng.below(4)]);
    const std::uint64_t key = pool[rng.below(4)];
    EXPECT_EQ(rows.match(n, key), rows.reference(n, key)) << "iter=" << iter << " n=" << n;
  }
}

TEST(MatchTag40, UnalignedRows) {
  // Cache records keep both rows aligned, but the kernel must not depend
  // on it: every offset of both rows must work.
  std::array<std::uint32_t, 48> lo{};
  std::array<std::uint8_t, 48> hi{};
  const std::uint64_t key = 0xab'cdef0123ULL;
  for (std::size_t i = 0; i < lo.size(); ++i) {
    lo[i] = static_cast<std::uint32_t>(i);
    hi[i] = static_cast<std::uint8_t>(i);
  }
  lo[19] = static_cast<std::uint32_t>(key);
  hi[19] = static_cast<std::uint8_t>(key >> 32);
  for (std::size_t off = 0; off + 16 <= lo.size(); ++off) {
    const std::uint32_t ref = match_tag40_scalar(lo.data() + off, hi.data() + off, 16, key);
    EXPECT_EQ(match_tag40(lo.data() + off, hi.data() + off, 16, key), ref) << "off=" << off;
  }
}

TEST(FindU32, FirstIndexAtEveryPositionAndWidth) {
  // Every width through three 16-lane groups plus the 4-lane and scalar
  // tails, and the UMON stack depths of both Table II machines.
  std::vector<std::size_t> widths;
  for (std::size_t n = 0; n <= 52; ++n) widths.push_back(n);
  for (std::size_t n : {191, 192, 193, 767, 768}) widths.push_back(n);
  // The top bit set: the kernel's signed packs must not flip the verdict.
  const std::uint32_t key = 0x80c0ffeeu;
  for (const std::size_t n : widths) {
    std::vector<std::uint32_t> vals(n);
    // Neighbours of the key in every byte, so only exact equality matches.
    for (std::size_t i = 0; i < n; ++i)
      vals[i] = key ^ (std::uint32_t{1} << (i % 32));
    EXPECT_EQ(find_u32(vals.data(), n, key), n) << "n=" << n;
    EXPECT_EQ(find_u32_scalar(vals.data(), n, key), n) << "n=" << n;
    for (std::size_t pos = 0; pos < n; ++pos) {
      const std::uint32_t saved = vals[pos];
      vals[pos] = key;
      EXPECT_EQ(find_u32(vals.data(), n, key), pos) << "n=" << n;
      EXPECT_EQ(find_u32_scalar(vals.data(), n, key), pos) << "n=" << n;
      vals[pos] = saved;
    }
  }
}

TEST(FindU32, ReturnsFirstOfDuplicates) {
  std::vector<std::uint32_t> vals(100, 7u);
  for (std::size_t first : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                            std::size_t{8}, std::size_t{17}, std::size_t{42},
                            std::size_t{99}}) {
    for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = i >= first ? 7u : 9u;
    EXPECT_EQ(find_u32(vals.data(), vals.size(), 7u), first);
  }
}

TEST(FindU32, RandomizedAgainstScalar) {
  Rng rng(0xf1u);
  for (int iter = 0; iter < 5000; ++iter) {
    const std::size_t n = rng.below(800);
    std::vector<std::uint32_t> vals(n);
    const std::array<std::uint32_t, 4> pool = {static_cast<std::uint32_t>(rng()),
                                               static_cast<std::uint32_t>(rng()),
                                               static_cast<std::uint32_t>(rng() & 0xff),
                                               ~0u};
    for (std::size_t i = 0; i < n; ++i) vals[i] = pool[rng.below(4)];
    const std::uint32_t key = pool[rng.below(4)];
    EXPECT_EQ(find_u32(vals.data(), n, key), find_u32_scalar(vals.data(), n, key))
        << "iter=" << iter << " n=" << n;
  }
}

// A rank row as mem::SetAssocCache keeps it: lanes [0, ways) hold a random
// permutation of [0, ways), the spare lanes their own index.
using RankRow = std::array<std::uint8_t, kRowLanes>;

RankRow random_ranks(Rng& rng, int ways) {
  RankRow row{};
  for (int i = 0; i < kRowLanes; ++i) row[i] = static_cast<std::uint8_t>(i);
  for (int i = ways - 1; i > 0; --i)
    std::swap(row[i], row[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  return row;
}

std::uint32_t ways_mask(int ways) { return (std::uint32_t{1} << ways) - 1; }

TEST(RankKernels, OldestMatchesScalarForEveryWayCount) {
  Rng rng(0x7a4u);
  for (int ways = 1; ways <= kRowLanes; ++ways) {
    for (int iter = 0; iter < 2000; ++iter) {
      const RankRow row = random_ranks(rng, ways);
      // Alternate full, single-way and random masks.
      std::uint32_t mask = ways_mask(ways);
      if (iter % 3 == 1)
        mask = std::uint32_t{1} << rng.below(static_cast<std::uint64_t>(ways));
      if (iter % 3 == 2) mask &= static_cast<std::uint32_t>(rng());
      const int ref = rank_oldest_scalar(row.data(), mask);
      ASSERT_EQ(rank_oldest(row.data(), mask), ref)
          << "ways=" << ways << " mask=" << mask;
      if (mask == 0) continue;
      // The reference is the masked lane of the largest rank.
      ASSERT_NE(mask & (std::uint32_t{1} << ref), 0u);
      for (int i = 0; i < ways; ++i) {
        if ((mask >> i) & 1u) {
          ASSERT_LE(row[i], row[ref]) << "ways=" << ways;
        }
      }
    }
    const RankRow row = random_ranks(rng, ways);
    EXPECT_EQ(rank_oldest(row.data(), 0), -1) << "ways=" << ways;
    EXPECT_EQ(rank_oldest_scalar(row.data(), 0), -1) << "ways=" << ways;
  }
}

TEST(RankKernels, OldestMatchesScalarForEveryMask) {
  // The kernel walks the four rank bits; check it on every mask of every
  // way count, over several rows each.
  Rng rng(0x16au);
  for (int ways = 1; ways <= kRowLanes; ++ways) {
    for (int rows = 0; rows < 3; ++rows) {
      const RankRow row = random_ranks(rng, ways);
      for (std::uint32_t mask = 0; mask <= ways_mask(ways); ++mask) {
        ASSERT_EQ(rank_oldest(row.data(), mask), rank_oldest_scalar(row.data(), mask))
            << "ways=" << ways << " mask=" << mask;
      }
    }
  }
}

TEST(RankKernels, PromoteMatchesScalarForEveryWayCount) {
  Rng rng(0x9e1u);
  for (int ways = 1; ways <= kRowLanes; ++ways) {
    for (int iter = 0; iter < 500; ++iter) {
      RankRow simd = random_ranks(rng, ways);
      RankRow ref = simd;
      // A run of promotes: the rows must agree after every step (the spare
      // lanes included), and the row must stay a permutation with the
      // promoted way at rank 0.
      for (int step = 0; step < 8; ++step) {
        const int way = static_cast<int>(rng.below(static_cast<std::uint64_t>(ways)));
        rank_promote(simd.data(), way);
        rank_promote_scalar(ref.data(), kRowLanes, way);
        ASSERT_EQ(simd, ref) << "ways=" << ways << " way=" << way;
        ASSERT_EQ(ref[way], 0);
        std::uint32_t seen = 0;
        for (int i = 0; i < ways; ++i) seen |= std::uint32_t{1} << ref[i];
        ASSERT_EQ(seen, ways_mask(ways)) << "ways=" << ways;
        for (int i = ways; i < kRowLanes; ++i) ASSERT_EQ(ref[i], i);
      }
    }
  }
}

TEST(RankKernels, PromoteMatchesScalarForEveryWay) {
  // Every way of every row shape, from several starting rows.
  Rng rng(0x16bu);
  for (int ways = 1; ways <= kRowLanes; ++ways) {
    for (int rows = 0; rows < 16; ++rows) {
      const RankRow start = random_ranks(rng, ways);
      for (int way = 0; way < ways; ++way) {
        RankRow simd = start;
        RankRow ref = start;
        rank_promote(simd.data(), way);
        rank_promote_scalar(ref.data(), kRowLanes, way);
        ASSERT_EQ(simd, ref) << "ways=" << ways << " way=" << way;
      }
    }
  }
}

TEST(RankKernels, RanksKeepTimestampOrder) {
  // Ranks must pick exactly the victim a fresh-timestamp-per-touch LRU
  // picks: the masked way with the oldest stamp.
  Rng rng(0x3c5u);
  for (int ways : {1, 2, 7, 8, 15, 16}) {
    RankRow row = random_ranks(rng, 0);
    std::array<std::uint64_t, kRowLanes> stamp{};
    std::uint64_t clock = 0;
    for (int w = 0; w < ways; ++w) {  // Fill every way once.
      rank_promote(row.data(), w);
      stamp[w] = ++clock;
    }
    for (int iter = 0; iter < 20000; ++iter) {
      const std::uint32_t mask = ways_mask(ways) & static_cast<std::uint32_t>(rng());
      int lru = -1;
      for (int i = 0; i < ways; ++i)
        if (((mask >> i) & 1u) && (lru < 0 || stamp[i] < stamp[lru])) lru = i;
      ASSERT_EQ(rank_oldest(row.data(), mask), lru) << "ways=" << ways;
      const int way = static_cast<int>(rng.below(static_cast<std::uint64_t>(ways)));
      rank_promote(row.data(), way);
      stamp[way] = ++clock;
    }
  }
}

TEST(MatchU8, EveryWidthAgainstScalar) {
  // The owner row of a cache record: 16 readable bytes, any width from 0
  // to 16 compared.  Keys at the byte edges, duplicates and lanes past the
  // width that hold the key.
  Rng rng(0x08u);
  for (int n = 0; n <= kRowLanes; ++n) {
    for (int iter = 0; iter < 200; ++iter) {
      std::array<std::uint8_t, kRowLanes> row{};
      const std::array<std::uint8_t, 4> pool = {0, 0xFF, 0x80,
                                                static_cast<std::uint8_t>(rng())};
      for (std::uint8_t& b : row) b = pool[rng.below(4)];
      const std::uint8_t key = pool[rng.below(4)];
      const std::uint32_t ref = match_u8_scalar(row.data(), n, key);
      ASSERT_EQ(match_u8(row.data(), n, key), ref) << "n=" << n << " iter=" << iter;
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ((ref >> i) & 1u, row[static_cast<std::size_t>(i)] == key ? 1u : 0u);
      }
      ASSERT_EQ(ref >> n, 0u) << "n=" << n;
    }
  }
}

TEST(Prefetch, HintsAreSideEffectFree) {
  // Smoke: hints must accept any address, including null, without faulting
  // or touching data.
  std::uint64_t x = 41;
  prefetch_read(&x);
  prefetch_write(&x);
  prefetch_read(nullptr);
  EXPECT_EQ(x, 41u);
}

TEST(Backend, NameIsKnown) {
  const std::string b = backend_name();
  EXPECT_TRUE(b == "sse2" || b == "scalar") << b;
#if defined(DELTA_NO_SIMD)
  EXPECT_EQ(b, "scalar");
#endif
}

}  // namespace
}  // namespace delta::simd
