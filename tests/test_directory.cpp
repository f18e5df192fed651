#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "mem/directory.hpp"

namespace delta::mem {
namespace {

TEST(Directory, FirstReadIsExclusiveFromMemory) {
  MesifDirectory d(4, 64);
  const auto act = d.on_read(0, 42);
  EXPECT_TRUE(act.from_memory);
  EXPECT_FALSE(act.forwarded);
  EXPECT_EQ(d.state(42), CoherenceState::kExclusive);
  EXPECT_TRUE(d.is_sharer(0, 42));
}

TEST(Directory, SecondReadForwardsAndShares) {
  MesifDirectory d(4, 64);
  d.on_read(0, 42);
  const auto act = d.on_read(1, 42);
  EXPECT_FALSE(act.from_memory);
  EXPECT_TRUE(act.forwarded);
  EXPECT_EQ(act.forwarder, 0);
  EXPECT_EQ(d.state(42), CoherenceState::kShared);
  // MESIF: the latest requester holds the F state.
  EXPECT_EQ(d.forwarder(42), 1);
}

TEST(Directory, ThirdReadForwardsFromFState) {
  MesifDirectory d(4, 64);
  d.on_read(0, 7);
  d.on_read(1, 7);
  const auto act = d.on_read(2, 7);
  EXPECT_TRUE(act.forwarded);
  EXPECT_EQ(act.forwarder, 1);
  EXPECT_EQ(d.forwarder(7), 2);
}

TEST(Directory, WriteInvalidatesSharers) {
  MesifDirectory d(4, 64);
  d.on_read(0, 9);
  d.on_read(1, 9);
  d.on_read(2, 9);
  const auto act = d.on_write(3, 9);
  EXPECT_EQ(act.invalidations, 3);
  EXPECT_EQ(d.state(9), CoherenceState::kModified);
  EXPECT_EQ(d.sharer_mask(9), 0b1000u);
}

TEST(Directory, WriteUpgradeInPlaceCostsNothing) {
  MesifDirectory d(4, 64);
  d.on_read(0, 9);  // Exclusive.
  const auto act = d.on_write(0, 9);
  EXPECT_EQ(act.invalidations, 0);
  EXPECT_FALSE(act.forwarded);
  EXPECT_EQ(d.state(9), CoherenceState::kModified);
}

TEST(Directory, ReadAfterWriteForwardsDirtyData) {
  MesifDirectory d(4, 64);
  d.on_write(0, 5);
  const auto act = d.on_read(1, 5);
  EXPECT_TRUE(act.forwarded);
  EXPECT_EQ(act.forwarder, 0);
  EXPECT_EQ(d.state(5), CoherenceState::kShared);
  EXPECT_GE(d.stats().writebacks, 1u);
}

TEST(Directory, EvictionRemovesSharerAndUntracksWhenEmpty) {
  MesifDirectory d(4, 64);
  d.on_read(0, 11);
  d.on_read(1, 11);
  EXPECT_EQ(d.tracked_blocks(), 1u);
  d.on_evict(0, 11);
  EXPECT_FALSE(d.is_sharer(0, 11));
  EXPECT_TRUE(d.is_sharer(1, 11));
  d.on_evict(1, 11);
  EXPECT_EQ(d.tracked_blocks(), 0u);
  EXPECT_EQ(d.state(11), CoherenceState::kInvalid);
}

TEST(Directory, EvictingForwarderPassesFState) {
  MesifDirectory d(4, 64);
  d.on_read(0, 3);
  d.on_read(1, 3);  // F = 1.
  d.on_evict(1, 3);
  EXPECT_EQ(d.forwarder(3), 0);
}

TEST(Directory, StatsAccumulate) {
  MesifDirectory d(2, 64);
  d.on_read(0, 1);
  d.on_read(1, 1);
  d.on_write(0, 1);
  EXPECT_EQ(d.stats().reads, 2u);
  EXPECT_EQ(d.stats().writes, 1u);
  EXPECT_EQ(d.stats().memory_fetches, 1u);
  EXPECT_GE(d.stats().invalidations_sent, 1u);
}

TEST(Directory, OutOfRangeBlockThrowsBeforeAnyChange) {
  MesifDirectory d(4, 64);
  d.on_read(0, 63);
  d.on_read(1, 63);
  d.on_write(2, 5);
  const auto snapshot = [&d] {
    std::vector<std::tuple<BlockAddr, CoherenceState, std::uint64_t, CoreId>> entries;
    d.for_each_entry([&](BlockAddr b, CoherenceState st, std::uint64_t sharers, CoreId fwd) {
      entries.emplace_back(b, st, sharers, fwd);
    });
    return entries;
  };
  const auto entries = snapshot();
  const DirectoryStats stats = d.stats();
  ASSERT_EQ(entries.size(), 2u);

  EXPECT_THROW(d.on_read(0, 64), std::out_of_range);
  EXPECT_THROW(d.on_write(1, 64), std::out_of_range);
  EXPECT_THROW(d.on_evict(1, 64), std::out_of_range);
  EXPECT_THROW(d.on_read(3, ~BlockAddr{0}), std::out_of_range);
  EXPECT_EQ(d.tracked_blocks(), 2u);
  EXPECT_EQ(snapshot(), entries);
  EXPECT_EQ(d.stats().reads, stats.reads);
  EXPECT_EQ(d.stats().writes, stats.writes);
  EXPECT_EQ(d.stats().memory_fetches, stats.memory_fetches);
  EXPECT_EQ(d.stats().forwards, stats.forwards);
  EXPECT_EQ(d.stats().invalidations_sent, stats.invalidations_sent);
  EXPECT_EQ(d.stats().writebacks, stats.writebacks);
}

// Invariant sweep: after a random workload, every block in Modified or
// Exclusive state has exactly one sharer.
TEST(DirectoryProperty, SingleOwnerInvariant) {
  MesifDirectory d(8, 64);
  std::uint64_t x = 12345;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 20'000; ++i) {
    const CoreId c = static_cast<CoreId>(next() % 8);
    const BlockAddr b = next() % 64;
    switch (next() % 3) {
      case 0: d.on_read(c, b); break;
      case 1: d.on_write(c, b); break;
      default: d.on_evict(c, b); break;
    }
  }
  for (BlockAddr b = 0; b < 64; ++b) {
    const auto st = d.state(b);
    const auto mask = d.sharer_mask(b);
    if (st == CoherenceState::kModified || st == CoherenceState::kExclusive) {
      EXPECT_EQ(__builtin_popcountll(mask), 1) << "block " << b;
    }
    if (st == CoherenceState::kInvalid) {
      EXPECT_EQ(mask, 0u);
    }
    if (mask != 0) {
      EXPECT_NE(st, CoherenceState::kInvalid);
    }
  }
}

}  // namespace
}  // namespace delta::mem
