// Parallel-sweep determinism and live-cache equivalence.
//
// Two guarantees this file pins down:
//   * run_sweep / run_schemes produce byte-identical results for
//     any job count — parallelism only changes the wall-clock (the whole
//     point of pre-sized result slots + per-run Chip isolation);
//   * the live SetAssocCache makes exactly the decisions of
//     the pre-rewrite array-of-structs engine (bench/legacy_cache.hpp is
//     the frozen oracle) on randomized traces exercising way masks,
//     touches and invalidations — through access() and through the
//     hit-or-fill Kernel the access engine runs, at every way count.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "legacy_cache.hpp"
#include "mem/cache.hpp"
#include "mem/replacement.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "workload/shared_stream.hpp"

namespace delta {
namespace {

sim::MachineConfig quick16() {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 10;
  cfg.measure_epochs = 30;
  return cfg;
}

std::string summary_of(const std::vector<std::vector<sim::MixResult>>& rows) {
  std::vector<sim::MixResult> flat;
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  return sim::json_summary(flat);
}

TEST(Sweep, ParallelJobsBitIdenticalToSerial) {
  const sim::MachineConfig cfg = quick16();
  const std::vector<workload::Mix> mixes = {sim::mix_for_config(cfg, "w2"),
                                            sim::mix_for_config(cfg, "w6")};
  const auto serial = sim::run_schemes(cfg, mixes, sim::kAllSchemeKinds, 1);
  const auto parallel = sim::run_schemes(cfg, mixes, sim::kAllSchemeKinds, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial[0].size(), sim::kAllSchemeKinds.size());
  // Byte-level comparison via the full JSON summary: every per-app metric,
  // traffic counter and control-message count must match exactly.
  EXPECT_EQ(summary_of(serial), summary_of(parallel));
}

TEST(Sweep, ClaimOrderIsHeaviestFirstWithinAGroup) {
  // One group (one mix, one seed) in kAllSchemeKinds order: workers claim
  // LFOC first and private last, by the fixed per-scheme epoch costs.
  const sim::MachineConfig cfg = quick16();
  const workload::Mix mix = sim::mix_for_config(cfg, "w6");
  std::vector<sim::SweepJob> jobs;
  for (const sim::SchemeKind kind : sim::kAllSchemeKinds) jobs.push_back({cfg, mix, kind, {}});
  // snuca 0, private 1, ideal 2, delta 3, carma 4, lfoc 5.
  EXPECT_EQ(sim::claim_order(jobs), (std::vector<std::size_t>{5, 0, 2, 4, 3, 1}));
  // Tiles and epochs scale the cost: a 64-tile copy outweighs any 16-tile
  // job, and a longer run outweighs a heavier scheme.
  sim::MachineConfig big = sim::config64();
  big.warmup_epochs = cfg.warmup_epochs;
  big.measure_epochs = cfg.measure_epochs;
  sim::MachineConfig longer = cfg;
  longer.measure_epochs *= 3;
  const std::vector<sim::SweepJob> scaled = {
      {cfg, mix, sim::SchemeKind::kLfoc, {}},
      {longer, mix, sim::SchemeKind::kPrivate, {}},
      {big, sim::mix_for_config(big, "w6"), sim::SchemeKind::kPrivate, {}}};
  EXPECT_EQ(sim::claim_order(scaled), (std::vector<std::size_t>{2, 1, 0}));
  EXPECT_TRUE(sim::claim_order({}).empty());
}

TEST(Sweep, ClaimOrderKeepsGroupsContiguousInFirstAppearanceOrder) {
  // Three groups, interleaved in the job list: w2, w6, and w2 under another
  // seed.  Each group's jobs are claimed together, heaviest first, and the
  // groups in the order their first job appears, whatever their costs.
  const sim::MachineConfig cfg = quick16();
  sim::MachineConfig reseeded = cfg;
  reseeded.seed += 1;
  const workload::Mix w2 = sim::mix_for_config(cfg, "w2");
  const workload::Mix w6 = sim::mix_for_config(cfg, "w6");
  const std::vector<sim::SweepJob> jobs = {
      {cfg, w2, sim::SchemeKind::kPrivate, {}},       // 0: group A
      {cfg, w6, sim::SchemeKind::kDelta, {}},         // 1: group B
      {reseeded, w2, sim::SchemeKind::kLfoc, {}},     // 2: group C
      {cfg, w6, sim::SchemeKind::kLfoc, {}},          // 3: group B
      {cfg, w2, sim::SchemeKind::kSnuca, {}},         // 4: group A
      {reseeded, w2, sim::SchemeKind::kPrivate, {}},  // 5: group C
  };
  EXPECT_EQ(sim::claim_order(jobs), (std::vector<std::size_t>{4, 0, 3, 1, 2, 5}));
}

TEST(Sweep, ClaimOrderKeepsJobOrderOnEqualCosts) {
  // Equal estimates (one scheme, tiles and epochs; the options do not enter
  // the cost) keep job order, around a heavier job in the middle.
  const sim::MachineConfig cfg = quick16();
  const workload::Mix mix = sim::mix_for_config(cfg, "w3");
  std::vector<sim::SweepJob> jobs;
  for (int interval : {1, 2, 3}) {
    sim::SchemeOptions opts;
    opts.central_interval_epochs = interval;
    jobs.push_back({cfg, mix, sim::SchemeKind::kIdealCentralized, opts});
  }
  jobs.insert(jobs.begin() + 1, {cfg, mix, sim::SchemeKind::kLfoc, {}});
  jobs.push_back({cfg, mix, sim::SchemeKind::kIdealCentralized, {}});
  EXPECT_EQ(sim::claim_order(jobs), (std::vector<std::size_t>{1, 0, 2, 3, 4}));
}

TEST(Sweep, RunSweepMatchesRunMixInJobOrder) {
  // The first group holds a 16-tile mix and its 64-tile x4 copy, which
  // share streams and are claimed out of job order (the 64-tile job first);
  // the second group is another mix.  Every result must still be the one
  // run_mix gives alone, in job order.
  const sim::MachineConfig small = [] {
    sim::MachineConfig c = sim::config16();
    c.warmup_epochs = 5;
    c.measure_epochs = 10;
    return c;
  }();
  sim::MachineConfig big = sim::config64();
  big.warmup_epochs = small.warmup_epochs;
  big.measure_epochs = small.measure_epochs;
  const std::vector<sim::SweepJob> jobs = {
      {small, sim::mix_for_config(small, "w3"), sim::SchemeKind::kDelta, {}},
      {big, sim::mix_for_config(big, "w3"), sim::SchemeKind::kSnuca, {}},
      {small, sim::mix_for_config(small, "w3"), sim::SchemeKind::kLfoc, {}},
      {small, sim::mix_for_config(small, "w1"), sim::SchemeKind::kPrivate, {}},
      {small, sim::mix_for_config(small, "w1"), sim::SchemeKind::kCarma, {}},
  };
  ASSERT_EQ(sim::claim_order(jobs), (std::vector<std::size_t>{1, 2, 0, 4, 3}));
  std::vector<std::string> direct;
  for (const sim::SweepJob& j : jobs) {
    const sim::MixResult r = sim::run_mix(j.cfg, j.mix, j.kind, j.opts);
    direct.push_back(sim::json_summary({&r, 1}));
  }
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const std::vector<sim::MixResult> swept = sim::run_sweep(jobs, threads);
    ASSERT_EQ(swept.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
      EXPECT_EQ(sim::json_summary({&swept[i], 1}), direct[i]) << "job " << i;
  }
}

TEST(Sweep, EmptyAndSingleJobEdgeCases) {
  EXPECT_TRUE(sim::run_sweep({}, 4).empty());
  const sim::MachineConfig cfg = quick16();
  const workload::Mix mix = sim::mix_for_config(cfg, "w1");
  const auto one = sim::run_sweep({{cfg, mix, sim::SchemeKind::kPrivate, {}}}, 8);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_GT(one[0].geomean_ipc, 0.0);
  // Observer slots, when given, must pair with the jobs one to one.
  const std::vector<obs::Observer*> one_slot(1, nullptr);
  const sim::SweepJob job{cfg, mix, sim::SchemeKind::kPrivate, {}};
  EXPECT_THROW((void)sim::run_sweep({job, job}, 1, one_slot), std::invalid_argument);
}

TEST(Sweep, SharedStreamsLiveForOneCallOnly) {
  // run_sweep shares the single-phase streams its jobs have in common
  // (workload/shared_stream.hpp) and frees every stream and chunk before it
  // returns, on the error path too, so no sweep starts with a stream drawn.
  ASSERT_EQ(workload::SharedStream::live_streams(), 0u);
  ASSERT_EQ(workload::SharedStream::live_chunks(), 0u);
  const sim::MachineConfig cfg = quick16();
  const workload::Mix mix = sim::mix_for_config(cfg, "w6");
  std::vector<sim::SweepJob> jobs;
  for (const sim::SchemeKind kind : sim::kAllSchemeKinds) jobs.push_back({cfg, mix, kind, {}});
  {
    // What the sweep builds: chips attached to one set draw chunks into it.
    std::vector<workload::StreamKey> uses;
    for (int i = 0; i < 2; ++i) {
      const auto keys = sim::Chip::stream_keys(cfg, mix.apps);
      uses.insert(uses.end(), keys.begin(), keys.end());
    }
    workload::StreamSet streams(uses);
    ASSERT_GT(workload::SharedStream::live_streams(), 0u);
    sim::Chip a(cfg, mix.apps, sim::make_scheme(sim::SchemeKind::kDelta), &streams);
    sim::Chip b(cfg, mix.apps, sim::make_scheme(sim::SchemeKind::kSnuca), &streams);
    a.run_epochs(3, false);
    EXPECT_GT(workload::SharedStream::live_chunks(), 0u);
  }
  EXPECT_EQ(workload::SharedStream::live_streams(), 0u);
  EXPECT_EQ(workload::SharedStream::live_chunks(), 0u);

  (void)sim::run_sweep(jobs, 2);
  EXPECT_EQ(workload::SharedStream::live_streams(), 0u);
  EXPECT_EQ(workload::SharedStream::live_chunks(), 0u);

  workload::Mix bad = mix;
  bad.apps.pop_back();
  jobs.push_back({cfg, bad, sim::SchemeKind::kDelta, {}});
  EXPECT_THROW((void)sim::run_sweep(jobs, 2), std::invalid_argument);
  EXPECT_EQ(workload::SharedStream::live_streams(), 0u);
  EXPECT_EQ(workload::SharedStream::live_chunks(), 0u);
}

// ---------------------------------------------------------------------------
// The live cache vs the frozen pre-rewrite oracle.
// ---------------------------------------------------------------------------

/// Which live entry a replay drives.
enum class Entry {
  kAccess,  ///< SetAssocCache::access, the AccessResult wrapper.
  kKernel,  ///< SetAssocCache::Kernel, as the access engine's bank merge
            ///< runs it.
};

/// The live side of a replay: one demand access through `entry`.  A
/// kernel lives for the whole replay, as it lives for a whole bank merge;
/// its counts reach stats() when finish() destroys it.
class LiveCache {
 public:
  LiveCache(std::uint32_t sets, int ways, Entry entry) : cache_(sets, ways) {
    if (entry == Entry::kKernel) kernel_.emplace(cache_);
  }
  mem::AccessResult access(std::uint32_t set, BlockAddr block, CoreId owner,
                           mem::WayMask mask) {
    if (!kernel_) return cache_.access(set, block, owner, mask);
    mem::AccessResult res;
    const bool hit = kernel_->access(set, block, owner, mask, &res);
    EXPECT_EQ(hit, res.hit);
    return res;
  }
  mem::SetAssocCache& cache() { return cache_; }
  const mem::CacheStats& finish() {
    kernel_.reset();
    return cache_.stats();
  }

 private:
  mem::SetAssocCache cache_;
  std::optional<mem::SetAssocCache::Kernel> kernel_;
};

/// Replays a randomized trace against both engines, asserting identical
/// per-access decisions.  `footprint_ways` scales the working set relative
/// to capacity; `masked` mixes in random insertion masks (some empty: a
/// bypass) like the partitioned schemes do.  `wide` gives each block
/// one of four high tag bytes (bits 32-39: 0x00, 0x01, 0x7F, 0xFF), so
/// lines that share their low 32 bits meet in one set and only the high
/// byte tells them apart, and draws owners from {0, 1, 127, 254}, the
/// ends of the one-byte owner lane.
void replay_and_compare(std::uint64_t seed, int footprint_ways, bool masked,
                        int ways = 8, bool wide = false, Entry entry = Entry::kAccess,
                        int accesses = 200'000) {
  constexpr std::uint32_t kSets = 64;
  constexpr std::uint64_t kHigh[] = {0x00, 0x01, 0x7F, 0xFF};
  constexpr CoreId kWideOwners[] = {0, 1, 127, 254};
  LiveCache live(kSets, ways, entry);
  mem::SetAssocCache& soa = live.cache();
  bench::legacy::SetAssocCache aos(kSets, ways);
  Rng rng(seed);
  const auto draw_owner = [&] {
    return wide ? kWideOwners[rng.below(4)] : static_cast<CoreId>(rng.below(4));
  };
  for (int i = 0; i < accesses; ++i) {
    BlockAddr block =
        rng.below(std::uint64_t{kSets} * static_cast<std::uint64_t>(footprint_ways));
    if (wide) block |= kHigh[rng.below(4)] << 32;
    const std::uint32_t set = static_cast<std::uint32_t>(block) & (kSets - 1);
    const CoreId owner = draw_owner();
    mem::WayMask mask = mem::full_mask(ways);
    if (masked) {
      // Random (sometimes empty -> bypass) mask.
      mask = static_cast<mem::WayMask>(rng.below(std::uint64_t{1} << ways));
    }
    const std::uint64_t op = rng.below(16);
    if (op == 14) {
      EXPECT_EQ(soa.touch(set, block), aos.touch(set, block));
      continue;
    }
    if (op == 15) {
      EXPECT_EQ(soa.invalidate(set, block), aos.invalidate(set, block));
      continue;
    }
    const mem::AccessResult a = live.access(set, block, owner, mask);
    const mem::AccessResult b = aos.access(set, block, owner, mask);
    ASSERT_EQ(a.hit, b.hit) << "access " << i;
    ASSERT_EQ(a.way, b.way) << "access " << i;
    ASSERT_EQ(a.evicted, b.evicted) << "access " << i;
    if (a.evicted) {
      ASSERT_EQ(a.victim_block, b.victim_block) << "access " << i;
      ASSERT_EQ(a.victim_owner, b.victim_owner) << "access " << i;
    }
  }
  const mem::CacheStats& stats = live.finish();
  EXPECT_EQ(stats.hits, aos.hits());
  EXPECT_EQ(stats.misses, aos.misses());
}

TEST(CacheEquivalence, HitHeavyFullMask) { replay_and_compare(1, 6, false); }
TEST(CacheEquivalence, ThrashingFullMask) { replay_and_compare(2, 16, false); }
TEST(CacheEquivalence, MaskedVictims) { replay_and_compare(3, 12, true); }
TEST(CacheEquivalence, MaskedHitHeavy) { replay_and_compare(4, 5, true); }
// The LLC bank geometry: the full 16-lane rank row.
TEST(CacheEquivalence, BankWaysFullMask) { replay_and_compare(5, 24, false, 16); }
TEST(CacheEquivalence, BankWaysMaskedVictims) {
  replay_and_compare(6, 24, true, 16);
}
// 40-bit tags and one-byte owners in the 128-byte record, from one way to
// the full tag line.
TEST(CacheEquivalence, FortyBitTagsAndHighOwnersAtEveryWidth) {
  for (const int ways : {1, 8, 15, 16}) {
    for (const bool masked : {false, true}) {
      SCOPED_TRACE(testing::Message() << ways << " ways, masked " << masked);
      replay_and_compare(100 + static_cast<std::uint64_t>(ways), ways / 2 + 1, masked, ways,
                         /*wide=*/true);
    }
  }
}

// The engine's kernel at every way count a record holds.  Full masks,
// random masks (empty ones included) and 40-bit tags with one-byte owners,
// each against the oracle.
TEST(CacheEquivalence, KernelAtEveryWayCount) {
  for (int ways = 1; ways <= 16; ++ways) {
    for (const bool masked : {false, true}) {
      for (const bool wide : {false, true}) {
        SCOPED_TRACE(testing::Message() << ways << " ways, masked " << masked << ", wide "
                                        << wide);
        replay_and_compare(200 + static_cast<std::uint64_t>(ways), ways + ways / 2 + 1,
                           masked, ways, wide, Entry::kKernel, 40'000);
      }
    }
  }
}

/// Every line of a cache, in (set, way) order, for before/after compares.
std::vector<std::tuple<std::uint32_t, int, BlockAddr, CoreId>> lines_of(
    const mem::SetAssocCache& c) {
  std::vector<std::tuple<std::uint32_t, int, BlockAddr, CoreId>> out;
  c.for_each_line([&](std::uint32_t s, int w, BlockAddr b, CoreId o) {
    out.emplace_back(s, w, b, o);
  });
  return out;
}

// An empty mask counts a miss and changes nothing else: no fill and no
// promote, so the LRU line of a full set is still the next victim.
TEST(CacheEquivalence, KernelEmptyMaskCountsAMissOnly) {
  for (const int ways : {4, 15, 16}) {
    SCOPED_TRACE(testing::Message() << ways << " ways");
    LiveCache live(2, ways, Entry::kKernel);
    const mem::WayMask all = mem::full_mask(ways);
    for (int w = 0; w < ways; ++w)
      EXPECT_FALSE(live.access(0, static_cast<BlockAddr>(w), 0, all).hit);
    const auto before = lines_of(live.cache());
    const mem::AccessResult bypass = live.access(0, 1000, 0, 0);
    EXPECT_FALSE(bypass.hit);
    EXPECT_FALSE(bypass.evicted);
    EXPECT_EQ(bypass.way, -1);
    EXPECT_EQ(lines_of(live.cache()), before);
    // Block 0 is still the LRU line: the next fill evicts it.
    const mem::AccessResult fill = live.access(0, 1001, 1, all);
    EXPECT_TRUE(fill.evicted);
    EXPECT_EQ(fill.victim_block, 0u);
    const mem::CacheStats& stats = live.finish();
    EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(ways) + 2);
    EXPECT_EQ(stats.hits, 0u);
  }
}

// A block at or above 2^40 or owner 255 throws on a miss before the
// kernel changes anything: lines, ranks (the next victim) and counts.
TEST(CacheEquivalence, KernelRejectsUnfitBlocksAndOwnersBeforeAnyChange) {
  const BlockAddr limit = BlockAddr{1} << 40;
  for (const int ways : {1, 15, 16}) {
    SCOPED_TRACE(testing::Message() << ways << " ways");
    const mem::WayMask all = mem::full_mask(ways);
    LiveCache warm(2, ways, Entry::kKernel);
    for (int w = 0; w < ways; ++w) warm.access(0, static_cast<BlockAddr>(w), 0, all);
    warm.access(0, 0, 0, all);  // Block 0 is MRU; block 1 (or 0) is LRU.
    const mem::CacheStats counts = warm.finish();
    const auto before = lines_of(warm.cache());

    LiveCache live(2, ways, Entry::kKernel);
    for (int w = 0; w < ways; ++w) live.access(0, static_cast<BlockAddr>(w), 0, all);
    live.access(0, 0, 0, all);
    EXPECT_THROW(live.access(0, limit, 0, all), std::out_of_range);
    EXPECT_THROW(live.access(0, ~BlockAddr{0}, 0, 0), std::out_of_range);
    EXPECT_THROW(live.access(0, 5000, 255, all), std::out_of_range);
    EXPECT_THROW(live.access(0, 5000, kInvalidCore, all), std::out_of_range);
    EXPECT_EQ(lines_of(live.cache()), before);
    // The victim order is untouched too.
    const mem::AccessResult fill = live.access(0, 5000, 3, all);
    EXPECT_TRUE(fill.evicted);
    EXPECT_EQ(fill.victim_block, ways == 1 ? 0u : 1u);
    const mem::CacheStats& stats = live.finish();
    EXPECT_EQ(stats.hits, counts.hits);
    EXPECT_EQ(stats.misses, counts.misses + 1);
    EXPECT_EQ(stats.evictions, counts.evictions + 1);
  }
}

}  // namespace
}  // namespace delta
