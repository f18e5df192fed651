#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "umon/umon.hpp"

namespace delta::umon {
namespace {

UmonConfig small_cfg() {
  UmonConfig c;
  c.max_ways = 32;
  c.sets_log2 = 9;
  c.set_dilution = 1;  // Monitor everything: exact stack distances.
  return c;
}

TEST(Umon, ConstructorRejectsBadConfig) {
  // Each bad field throws a message naming it, in every build type, before
  // any shift or allocation uses the value.
  const auto expect_rejected = [](UmonConfig cfg, const char* field) {
    try {
      const Umon u(cfg);
      ADD_FAILURE() << "accepted a bad " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  expect_rejected(UmonConfig{.sets_log2 = 31}, "umon.sets_log2");
  expect_rejected(UmonConfig{.set_dilution = 0}, "umon.set_dilution");
  expect_rejected(UmonConfig{.max_ways = 0}, "umon.max_ways");
  expect_rejected(UmonConfig{.coarse_ways = 0}, "umon.coarse_ways");
}

TEST(Umon, ColdAccessesAreMisses) {
  Umon u(small_cfg());
  for (BlockAddr b = 0; b < 512; ++b) u.access(b);
  EXPECT_DOUBLE_EQ(u.misses_at_max(), 512.0);
  EXPECT_DOUBLE_EQ(u.accesses(), 512.0);
}

TEST(Umon, RepeatAccessHitsAtDistanceZero) {
  Umon u(small_cfg());
  u.access(0);
  u.access(0);
  EXPECT_DOUBLE_EQ(u.hits_between(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(u.hits_between(1, 32), 0.0);
}

TEST(Umon, StackDistanceMeasuredPerSet) {
  Umon u(small_cfg());
  // Three distinct blocks in the same set (512 apart), then re-touch the
  // first: its per-set stack distance is 2.
  u.access(0);
  u.access(512);
  u.access(1024);
  u.access(0);
  EXPECT_DOUBLE_EQ(u.hits_between(2, 3), 1.0);
  EXPECT_DOUBLE_EQ(u.hits_between(0, 2), 0.0);
}

TEST(Umon, MissCurveMonotoneNonIncreasing) {
  Umon u(small_cfg());
  Rng rng(3);
  for (int i = 0; i < 50'000; ++i) u.access(rng.below(512 * 8));
  const MissCurve mc = u.miss_curve();
  for (int w = 1; w <= mc.max_ways(); ++w) EXPECT_LE(mc.at(w), mc.at(w - 1));
  EXPECT_DOUBLE_EQ(mc.at(0), u.accesses());
}

TEST(Umon, LoopFootprintShowsCliff) {
  // A cyclic sweep over 8 ways' worth of lines: every reuse has per-set
  // stack distance exactly 8, so the miss curve steps at 8 ways.
  Umon u(small_cfg());
  const BlockAddr lines = 512 * 8;
  for (int pass = 0; pass < 4; ++pass)
    for (BlockAddr b = 0; b < lines; ++b) u.access(b);
  const MissCurve mc = u.miss_curve();
  // A loop of 8 lines/set has stack distance exactly 7: with <= 7 ways
  // everything (beyond cold) misses; with 8+ everything hits.
  EXPECT_GT(mc.at(7), 0.7 * u.accesses());
  EXPECT_LT(mc.at(8), 0.3 * u.accesses());
}

TEST(Umon, UniformFootprintGivesLinearCurve) {
  Umon u(small_cfg());
  Rng rng(11);
  const BlockAddr lines = 512 * 16;  // 16 ways' worth.
  for (int i = 0; i < 400'000; ++i) u.access(rng.below(lines));
  const MissCurve mc = u.miss_curve();
  // Misses at w ways ~ accesses * (1 - w/16); check mid-point loosely.
  const double frac8 = mc.at(8) / u.accesses();
  EXPECT_NEAR(frac8, 0.5, 0.1);
}

TEST(Umon, DilutionScalesCountsBack) {
  UmonConfig cfg = small_cfg();
  cfg.set_dilution = 16;
  Umon diluted(cfg);
  Umon exact(small_cfg());
  Rng rng(5);
  for (int i = 0; i < 600'000; ++i) {
    const BlockAddr b = rng.below(512 * 4);
    diluted.access(b);
    exact.access(b);
  }
  // Scaled sampled counts approximate the exact counts within ~10%.
  EXPECT_NEAR(diluted.accesses() / exact.accesses(), 1.0, 0.1);
  EXPECT_NEAR(diluted.hits_between(0, 32) / exact.hits_between(0, 32), 1.0, 0.1);
}

TEST(Umon, CoarseCountersApproximateFine) {
  Umon u(small_cfg());
  Rng rng(8);
  for (int i = 0; i < 300'000; ++i) u.access(rng.below(512 * 12));
  // Windows aligned to 4-way buckets agree exactly; unaligned interpolate.
  EXPECT_NEAR(u.coarse_hits_between(0, 4), u.hits_between(0, 4),
              0.02 * u.accesses() + 1);
  EXPECT_NEAR(u.coarse_hits_between(4, 12), u.hits_between(4, 12),
              0.06 * u.accesses() + 1);
}

TEST(Umon, DecayHalvesCounters) {
  Umon u(small_cfg());
  u.access(1);
  u.access(1);
  const double before = u.hits_between(0, 1);
  u.decay(0.5);
  EXPECT_DOUBLE_EQ(u.hits_between(0, 1), before / 2.0);
}

TEST(Umon, ResetClearsEverything) {
  Umon u(small_cfg());
  u.access(1);
  u.access(1);
  u.reset();
  EXPECT_DOUBLE_EQ(u.accesses(), 0.0);
  EXPECT_DOUBLE_EQ(u.hits_between(0, 32), 0.0);
}

TEST(Umon, RefeedAfterResetGivesBitEqualCurves) {
  // Stacks are left uninitialised at construction and reset() only zeroes
  // their depths: no entry past a stack's depth may ever be read, so a
  // monitor refed after reset() must reproduce its first curves exactly.
  UmonConfig cfg = small_cfg();
  cfg.set_dilution = 4;
  std::vector<BlockAddr> stream;
  Rng rng(33);
  for (int i = 0; i < 200'000; ++i) stream.push_back(rng.below(512 * 40));
  Umon u(cfg);
  for (const BlockAddr b : stream) u.access(b);
  const std::vector<double> fine = u.miss_curve().raw();
  const std::vector<double> coarse = u.coarse_miss_curve().raw();
  u.reset();
  for (const BlockAddr b : stream) u.access(b);
  EXPECT_EQ(u.miss_curve().raw(), fine);
  EXPECT_EQ(u.coarse_miss_curve().raw(), coarse);
}

TEST(Umon, CoarseMissCurveMonotone) {
  Umon u(small_cfg());
  Rng rng(21);
  for (int i = 0; i < 100'000; ++i) u.access(rng.below(512 * 6));
  const MissCurve mc = u.coarse_miss_curve();
  for (int w = 1; w <= mc.max_ways(); ++w) EXPECT_LE(mc.at(w), mc.at(w - 1));
}

TEST(Umon, StorageCostReportsCoarseSavings) {
  UmonConfig fine = small_cfg();
  Umon u(fine);
  EXPECT_GT(u.storage_bits(), 0u);
}

TEST(Umon, NonDivisorSetDilutionIsSafe) {
  // Regression: dilution 3 over 512 sets monitors sets 0,3,...,510 — one
  // more stack than 512/3 truncated; the last monitored set used to write
  // out of bounds.
  UmonConfig cfg;
  cfg.max_ways = 16;
  cfg.sets_log2 = 9;
  cfg.set_dilution = 3;
  Umon u(cfg);
  for (BlockAddr b = 0; b < 4096; ++b) u.access(b);
  for (BlockAddr b = 0; b < 4096; ++b) u.access(b);
  EXPECT_GT(u.sampled_accesses(), 0u);
  EXPECT_GT(u.hits_between(0, 16), 0.0);
}

TEST(Umon, FullStackRecyclesItsLruEntry) {
  UmonConfig cfg = small_cfg();
  cfg.max_ways = 4;
  Umon u(cfg);
  // Five blocks of set 0 through a 4-deep stack: the first falls out.
  for (BlockAddr tag = 1; tag <= 5; ++tag) u.access(tag << 9);
  u.access(BlockAddr{1} << 9);
  EXPECT_DOUBLE_EQ(u.misses_at_max(), 6.0);
  // The stack is now 1, 5, 4, 3: block 5 sits at distance 1.
  u.access(BlockAddr{5} << 9);
  EXPECT_DOUBLE_EQ(u.hits_between(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(u.misses_at_max(), 6.0);
}

TEST(Umon, SampledBlockWithWideTagThrowsBeforeAnyChange) {
  UmonConfig cfg;  // 512 sets, 1 in 16 sampled: set 0 is monitored.
  Umon u(cfg);
  const BlockAddr widest = (BlockAddr{1} << 32) - 1;  // Largest 32-bit tag.
  u.access(widest << 9);
  u.access(widest << 9);
  EXPECT_DOUBLE_EQ(u.hits_between(0, 1), 16.0);
  const double accesses = u.accesses();
  const std::vector<double> curve = u.miss_curve().raw();

  EXPECT_THROW(u.access((widest + 1) << 9), std::out_of_range);
  EXPECT_DOUBLE_EQ(u.accesses(), accesses);
  EXPECT_EQ(u.miss_curve().raw(), curve);
  // The stack is untouched too: the widest tag still hits at the top.
  u.access(widest << 9);
  EXPECT_DOUBLE_EQ(u.hits_between(0, 1), 32.0);
  // An unsampled block (set 1) never reaches a stack, whatever its tag.
  EXPECT_NO_THROW(u.access(((widest + 1) << 9) | 1));
}

// The sampler is the monitor's set-sampling rule: a set is monitored iff
// its index is a multiple of the dilution, and its stack is index /
// dilution.  Checked over every set for power-of-two and other dilutions.
TEST(Umon, SamplerIsExactDivisionAtAnyDilution) {
  for (const int dilution : {1, 2, 3, 5, 7, 16, 33, 100, 4095, 4096, 5000}) {
    SCOPED_TRACE(dilution);
    UmonConfig cfg;
    cfg.max_ways = 4;
    cfg.sets_log2 = 13;
    cfg.set_dilution = dilution;
    const Umon u(cfg);
    const Umon::Sampler sample = u.sampler();
    const auto d = static_cast<std::uint32_t>(dilution);
    for (std::uint32_t set = 0; set < (1u << 13); ++set) {
      // High bits above the set index leave the choice alone.
      const BlockAddr block = (BlockAddr{0xABCDE} << 13) | set;
      ASSERT_EQ(sample.sampled(block), set % d == 0) << set;
      ASSERT_EQ(sample.stack_of(block), set / d) << set;
    }
  }
}

// The same rule at the top of the widest set range a monitor accepts
// (2^20 sets, UmonConfig::validate): multiples of the dilution, their
// neighbours and random sets all divide exactly.
TEST(Umon, SamplerIsExactAtWideSetIndices) {
  constexpr std::uint64_t kSets = std::uint64_t{1} << 20;
  for (const int dilution : {1 << 10, 1003, 1 << 19, (1 << 20) - 1}) {
    SCOPED_TRACE(dilution);
    UmonConfig cfg;
    cfg.max_ways = 1;
    cfg.coarse_ways = 1;
    cfg.sets_log2 = 20;
    cfg.set_dilution = dilution;
    const Umon::Sampler sample = Umon(cfg).sampler();
    const auto d = static_cast<std::uint64_t>(dilution);
    std::vector<std::uint64_t> sets = {0, 1, kSets - 1, kSets - 2};
    for (std::uint64_t m = d; m + 1 < kSets; m += d) {
      sets.push_back(m - 1);
      sets.push_back(m);
      sets.push_back(m + 1);
    }
    Rng rng(static_cast<std::uint64_t>(dilution));
    for (int i = 0; i < 10'000; ++i) sets.push_back(rng.below(kSets));
    for (const std::uint64_t set : sets) {
      ASSERT_EQ(sample.sampled(set), set % d == 0) << set;
      ASSERT_EQ(sample.stack_of(set), set / d) << set;
    }
  }
}

// The access engine's stage loop keeps only the blocks the sampler accepts
// and feeds them in stream order; the monitor must end in exactly the
// state per-access access() leaves, at the default dilution and at a
// non-power-of-two one.
TEST(Umon, SampledFeedMatchesPerAccessUpdates) {
  for (const int dilution : {16, 3}) {
    SCOPED_TRACE(dilution);
    UmonConfig cfg;
    cfg.max_ways = 48;
    cfg.set_dilution = dilution;
    Umon per_access(cfg), fed(cfg);
    const Umon::Sampler sample = fed.sampler();
    Rng rng(17);
    std::vector<BlockAddr> stream(60'000);
    for (BlockAddr& b : stream) b = rng.below(512 * 40);
    std::vector<BlockAddr> sampled;
    for (const BlockAddr b : stream) {
      per_access.access(b);
      if (sample.sampled(b)) sampled.push_back(b);
    }
    // Fed in uneven chunks, as epochs of different lengths would.
    for (std::size_t i = 0; i < sampled.size(); i += 777)
      fed.feed(sampled.data() + i, std::min<std::size_t>(777, sampled.size() - i));
    EXPECT_EQ(fed.sampled_accesses(), per_access.sampled_accesses());
    EXPECT_GT(fed.sampled_accesses(), 0u);
    EXPECT_DOUBLE_EQ(fed.misses_at_max(), per_access.misses_at_max());
    EXPECT_EQ(fed.miss_curve().raw(), per_access.miss_curve().raw());
    EXPECT_EQ(fed.coarse_miss_curve().raw(), per_access.coarse_miss_curve().raw());
  }
}

}  // namespace
}  // namespace delta::umon
