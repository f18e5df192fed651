#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "sim/chip.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "workload/generator.hpp"
#include "workload/irregular.hpp"
#include "workload/mixes.hpp"
#include "workload/shared_stream.hpp"
#include "workload/spec.hpp"

namespace delta::workload {
namespace {

TEST(SpecRegistry, Has29Profiles) {
  EXPECT_EQ(spec_profiles().size(), 29u);
}

TEST(SpecRegistry, LookupByShortAndFullName) {
  EXPECT_EQ(spec_profile("xa").name, "xalancbmk");
  EXPECT_EQ(spec_profile("xalancbmk").short_name, "xa");
  EXPECT_TRUE(has_spec_profile("mcf"));
  EXPECT_FALSE(has_spec_profile("nosuch"));
  EXPECT_THROW(spec_profile("nosuch"), std::out_of_range);
}

TEST(SpecRegistry, ShortNamesUnique) {
  std::set<std::string> names;
  for (const auto& p : spec_profiles()) names.insert(p.short_name);
  EXPECT_EQ(names.size(), spec_profiles().size());
}

TEST(SpecRegistry, RingWeightsSumToOne) {
  for (const auto& p : spec_profiles()) {
    for (const auto& ph : p.phases) {
      double w = 0.0;
      for (const auto& r : ph.rings) w += r.weight;
      EXPECT_NEAR(w, 1.0, 1e-9) << p.name;
      EXPECT_GT(ph.mlp, 0.0) << p.name;
      EXPECT_GT(ph.cpi_base, 0.0) << p.name;
      EXPECT_GT(ph.apki, 0.0) << p.name;
    }
  }
}

TEST(SpecRegistry, TableIIIClassCounts) {
  std::map<AppClass, int> counts;
  for (const auto& p : spec_profiles()) ++counts[p.cls];
  EXPECT_EQ(counts[AppClass::kInsensitive], 5);
  EXPECT_EQ(counts[AppClass::kThrashing], 3);
  EXPECT_EQ(counts[AppClass::kSensitiveLow], 9);
  EXPECT_EQ(counts[AppClass::kSensitiveLowMedium], 12);
}

TEST(TraceGen, DeterministicForEqualSeeds) {
  const AppProfile& p = spec_profile("mcf");
  TraceGen a(p, 0, 42), b(p, 0, 42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(TraceGen, DifferentSeedsDiverge) {
  const AppProfile& p = spec_profile("mcf");
  TraceGen a(p, 0, 1), b(p, 0, 2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 100);
}

TEST(TraceGen, RespectsBaseAddress) {
  const AppProfile& p = spec_profile("povray");
  const Addr base = Addr{7} << 34;
  TraceGen g(p, base, 3);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(g.next(), block_of(base));
}

TEST(TraceGen, StreamRingNeverRehitsSoon) {
  // libquantum's stream component: consecutive stream addresses distinct.
  AppProfile p;
  p.name = "stream-only";
  p.short_name = "st";
  Phase ph;
  ph.rings = {Ring{0, 1.0, RingKind::kStream}};
  p.phases.push_back(ph);
  TraceGen g(p, 0, 9);
  std::set<BlockAddr> seen;
  for (int i = 0; i < 10'000; ++i) EXPECT_TRUE(seen.insert(g.next()).second);
}

TEST(TraceGen, LoopRingCyclesExactly) {
  AppProfile p;
  p.name = "loop-only";
  p.short_name = "lo";
  Phase ph;
  ph.rings = {Ring{64 * kLineBytes, 1.0, RingKind::kLoop}};
  p.phases.push_back(ph);
  TraceGen g(p, 0, 4);
  const BlockAddr first = g.next();
  for (int i = 1; i < 64; ++i) g.next();
  EXPECT_EQ(g.next(), first);  // Period 64 lines.
}

TEST(TraceGen, PhaseSwitchingChangesPhasePointer) {
  const AppProfile& p = spec_profile("gcc");
  ASSERT_GE(p.phases.size(), 2u);
  TraceGen g(p, 0, 5);
  std::set<const Phase*> phases_seen;
  for (std::uint64_t e = 0; e < 4 * p.phase_len_epochs; ++e) {
    g.set_epoch(e);
    phases_seen.insert(&g.phase());
  }
  EXPECT_EQ(phases_seen.size(), 2u);
}

TEST(TraceGen, SinglePhaseIgnoresEpoch) {
  const AppProfile& p = spec_profile("povray");
  TraceGen g(p, 0, 5);
  const Phase* ph = &g.phase();
  g.set_epoch(12345);
  EXPECT_EQ(&g.phase(), ph);
}

// fill() must be n calls of next(): every ring kind, every profile, any
// batch size, resumed mid-stream and interleaved with next().

/// Draws n blocks from `a` with fill() and n from `b` with next(); true if
/// they agree.  Leaves both generators n draws further on.
::testing::AssertionResult fill_matches_next(TraceGen& a, TraceGen& b, std::size_t n) {
  std::vector<BlockAddr> got(n + 1, ~BlockAddr{0});
  a.fill(got.data(), n);
  if (got[n] != ~BlockAddr{0})
    return ::testing::AssertionFailure() << "fill wrote past n=" << n;
  for (std::size_t i = 0; i < n; ++i) {
    const BlockAddr want = b.next();
    if (got[i] != want)
      return ::testing::AssertionFailure()
             << "draw " << i << " of " << n << ": fill " << got[i] << ", next " << want;
  }
  return ::testing::AssertionSuccess();
}

TEST(TraceGenFill, EqualsRepeatedNextForEveryProfile) {
  std::vector<const AppProfile*> profiles;
  for (const AppProfile& p : spec_profiles()) profiles.push_back(&p);
  for (const AppProfile& p : irregular_profiles()) profiles.push_back(&p);
  std::set<RingKind> kinds;
  for (const AppProfile* p : profiles) {
    for (const Phase& ph : p->phases)
      for (const Ring& r : ph.rings) kinds.insert(r.kind);
    for (const std::size_t n : {0, 1, 16, 1700}) {
      TraceGen a(*p, Addr{3} << 34, 11), b(*p, Addr{3} << 34, 11);
      // Three batches, so later fills resume every ring mid-stream; then a
      // next() on each side, so the stream carries on identically.
      for (int batch = 0; batch < 3; ++batch)
        ASSERT_TRUE(fill_matches_next(a, b, n)) << p->name << " batch " << batch;
      ASSERT_EQ(a.next(), b.next()) << p->name << " n=" << n;
    }
  }
  // The SPEC and irregular profiles between them use every ring kind,
  // gather, hash join and walk included.
  EXPECT_EQ(kinds.size(), 6u);
}

TEST(TraceGenFill, EqualsRepeatedNextAcrossPhasesAndWraps) {
  // Small rings of every kind, so 1700-draw batches wrap loops, re-salt
  // gather and hash-join passes and close walk periods; two phases of
  // different weights, switching every epoch.
  AppProfile p;
  p.name = "every-kind";
  p.short_name = "ek";
  p.phase_len_epochs = 1;
  Phase even, odd;
  even.rings = {Ring{4 * kKiB, 0.2, RingKind::kUniform},
                Ring{2 * kKiB, 0.2, RingKind::kLoop},
                Ring{0, 0.1, RingKind::kStream},
                Ring{1 * kKiB, 0.2, RingKind::kGather},
                Ring{4 * kKiB, 0.2, RingKind::kHashJoin},
                Ring{2 * kKiB, 0.1, RingKind::kWalk}};
  odd.rings = {Ring{2 * kKiB, 0.5, RingKind::kHashJoin},
               Ring{1 * kKiB, 0.3, RingKind::kGather},
               Ring{8 * kKiB, 0.2, RingKind::kUniform}};
  p.phases = {even, odd};
  for (const std::size_t n : {0, 1, 16, 1700}) {
    TraceGen a(p, 0, 23), b(p, 0, 23);
    std::set<const Phase*> seen;
    for (std::uint64_t epoch = 0; epoch < 8; ++epoch) {
      a.set_epoch(epoch);
      b.set_epoch(epoch);
      seen.insert(&a.phase());
      ASSERT_TRUE(fill_matches_next(a, b, n)) << "epoch " << epoch;
      ASSERT_EQ(a.next(), b.next()) << "epoch " << epoch;
    }
    EXPECT_EQ(seen.size(), 2u);
  }

  // A multi-phase SPEC profile across its real phase boundaries.
  const AppProfile& gcc = spec_profile("gcc");
  ASSERT_GE(gcc.phases.size(), 2u);
  TraceGen a(gcc, 0, 5), b(gcc, 0, 5);
  for (std::uint64_t epoch = 0; epoch < 4 * gcc.phase_len_epochs; ++epoch) {
    a.set_epoch(epoch);
    b.set_epoch(epoch);
    const std::size_t n = epoch % 4 == 3 ? 1700 : 16;
    ASSERT_TRUE(fill_matches_next(a, b, n)) << "epoch " << epoch;
  }
}

/// The ring choice TraceGen made before its threshold table: scale the
/// 53-bit draw to a double in [0, total) and scan the cumulative weights.
std::size_t historical_ring(const std::vector<double>& cum, std::uint64_t k) {
  const double r = static_cast<double>(k) * 0x1.0p-53 * cum.back();
  std::size_t i = 0;
  while (i + 1 < cum.size() && r >= cum[i]) ++i;
  return i;
}

TEST(TraceGen, ThresholdRingChoiceMatchesTheDoubleScan) {
  // Every phase of every ring-driven profile (Table III stand-ins and the
  // irregular kernels): the integer thresholds must pick the ring the
  // double scan picked, right at each boundary and on random draws.
  constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
  Rng rng(0x7e57);
  std::size_t phases = 0;
  for (const auto* family : {&spec_profiles(), &irregular_profiles()}) {
    for (const AppProfile& p : *family) {
      for (const Phase& ph : p.phases) {
        ++phases;
        std::vector<double> cum;
        double sum = 0.0;
        for (const Ring& r : ph.rings) cum.push_back(sum += r.weight);
        const std::vector<std::uint64_t> t = ring_thresholds(cum);
        ASSERT_EQ(t.size(), cum.size() - 1) << p.name;
        const auto check = [&](std::uint64_t k) {
          EXPECT_EQ(choose_ring(t.data(), t.size(), k), historical_ring(cum, k))
              << p.name << " draw " << k;
        };
        for (const std::uint64_t tj : t) {
          if (tj > 0) check(tj - 1);
          if (tj < kDraws) check(tj);
        }
        check(0);
        check(kDraws - 1);
        for (int i = 0; i < 100'000; ++i) check(rng() >> 11);
      }
    }
  }
  EXPECT_GT(phases, 29u);
}

// ---------------------------------------------------------------------------
// Shared streams (workload/shared_stream.hpp): every sharer of a stream
// must read exactly the sequence its own TraceGen would have drawn.
// ---------------------------------------------------------------------------

constexpr std::size_t kChunk = StreamChunk::kBlocks;

/// The first n blocks the generator of `app` on core `core` under chip
/// seed `seed` draws.
std::vector<BlockAddr> own_draws(const AppProfile& p, int core, std::uint64_t seed,
                                 std::size_t n) {
  TraceGen g(p, core_window_base(core), core_seed(seed, core));
  std::vector<BlockAddr> out(n);
  g.fill(out.data(), n);
  return out;
}

/// Reads n blocks from `g` in fills of the sizes in `pattern`, cycling.
std::vector<BlockAddr> read_in_fills(TraceGen& g, std::size_t n,
                                     const std::vector<std::size_t>& pattern) {
  std::vector<BlockAddr> out(n + 1, ~BlockAddr{0});
  for (std::size_t done = 0, k = 0; done < n; ++k) {
    const std::size_t m = std::min(pattern[k % pattern.size()], n - done);
    g.fill(out.data() + done, m);
    done += m;
  }
  EXPECT_EQ(out[n], ~BlockAddr{0}) << "fill wrote past the end";
  out.pop_back();
  return out;
}

TEST(SharedStream, ConcurrentReadersOfEveryFillSizeSeeTheOwnSequence) {
  // Readers on their own threads, one fill size each: single blocks, one
  // interleave batch, an epoch's worth, and sizes that end just short of,
  // just past and far past a chunk boundary.
  const std::vector<std::vector<std::size_t>> patterns = {
      {1}, {16}, {1753}, {kChunk - 1}, {kChunk + 1}, {3, kChunk * 2 + 5, 1, 700}};
  constexpr std::size_t kBlocks = 3 * kChunk + 1000;
  const std::size_t before = SharedStream::live_chunks();
  for (const AppProfile* p : {&spec_profile("xa"), &spec_profile("lb"),
                              &spec_profile("hm"), &irregular_profiles().front(),
                              &irregular_profiles().back()}) {
    if (!epoch_invariant(*p)) continue;
    const int core = 5;
    const std::uint64_t seed = 77;
    const std::vector<BlockAddr> want = own_draws(*p, core, seed, kBlocks);
    SharedStream stream(*p, core_window_base(core), core_seed(seed, core),
                        static_cast<unsigned>(patterns.size()));
    std::vector<std::vector<BlockAddr>> got(patterns.size());
    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < patterns.size(); ++r)
      readers.emplace_back([&, r] {
        TraceGen g(*p, core_window_base(core), core_seed(seed, core));
        g.attach(stream);
        got[r] = read_in_fills(g, kBlocks, patterns[r]);
      });
    for (std::thread& t : readers) t.join();
    for (std::size_t r = 0; r < patterns.size(); ++r)
      EXPECT_EQ(got[r], want) << p->short_name << " reader " << r;
    // Every sharer has finished: nothing of the stream is left.
    EXPECT_EQ(SharedStream::live_chunks(), before) << p->short_name;
  }
}

TEST(SharedStream, FreesAChunkOnceEverySharerHasPassedIt) {
  const AppProfile& p = spec_profile("xa");
  const Addr base = core_window_base(0);
  const std::uint64_t seed = core_seed(1, 0);
  const std::vector<BlockAddr> want = own_draws(p, 0, 1, 12 * kChunk);
  const std::size_t before = SharedStream::live_chunks();
  std::vector<BlockAddr> buf(kChunk);
  {
    // Two sharers in step: at most the chunk each reads stays alive.
    SharedStream stream(p, base, seed, 2);
    TraceGen a(p, base, seed), b(p, base, seed);
    a.attach(stream);
    b.attach(stream);
    for (std::size_t i = 0; i < 10; ++i) {
      a.fill(buf.data(), kChunk);
      b.fill(buf.data(), kChunk);
      EXPECT_TRUE(std::equal(buf.begin(), buf.end(), want.begin() + i * kChunk));
      EXPECT_LE(SharedStream::live_chunks() - before, 2u) << "chunk " << i;
    }
  }
  EXPECT_EQ(SharedStream::live_chunks(), before);
  {
    // A counted sharer that has not started holds the stream from chunk 0.
    SharedStream stream(p, base, seed, 2);
    {
      TraceGen a(p, base, seed);
      a.attach(stream);
      for (int i = 0; i < 3; ++i) a.fill(buf.data(), kChunk);
    }
    EXPECT_EQ(SharedStream::live_chunks() - before, 3u);
    TraceGen b(p, base, seed);
    b.attach(stream);
    for (std::size_t i = 0; i < 3; ++i) {
      b.fill(buf.data(), kChunk);
      EXPECT_TRUE(std::equal(buf.begin(), buf.end(), want.begin() + i * kChunk));
      // The chunks before the one b reads are gone.
      EXPECT_EQ(SharedStream::live_chunks() - before, 3u - i);
    }
    EXPECT_THROW(TraceGen(p, base, seed).attach(stream), std::logic_error);
  }
  EXPECT_EQ(SharedStream::live_chunks(), before);
}

TEST(StreamSet, SharesOnlyEpochInvariantStreamsNamedTwice) {
  std::vector<StreamKey> uses;
  std::vector<const AppProfile*> profiles;
  for (const AppProfile& p : spec_profiles()) profiles.push_back(&p);
  for (const AppProfile& p : irregular_profiles()) profiles.push_back(&p);
  for (const AppProfile* p : profiles) {
    uses.push_back({p->short_name, 3, 9});
    uses.push_back({p->short_name, 3, 9});
    uses.push_back({p->short_name, 4, 9});  // Named once: never shared.
  }
  const StreamSet set(uses);
  int phased = 0;
  for (const AppProfile* p : profiles) {
    const bool invariant = epoch_invariant(*p);
    phased += invariant ? 0 : 1;
    EXPECT_EQ(set.find({p->short_name, 3, 9}) != nullptr, invariant) << p->short_name;
    EXPECT_EQ(set.find({p->short_name, 4, 9}), nullptr) << p->short_name;
    EXPECT_EQ(set.find({p->short_name, 3, 10}), nullptr) << p->short_name;
  }
  // omnetpp, gcc, mcf and the phased hash join switch phase.
  EXPECT_EQ(phased, 4);
  for (const char* app : {"om", "gc", "mc"}) {
    EXPECT_FALSE(epoch_invariant(spec_profile(app))) << app;
    EXPECT_EQ(set.find({app, 3, 9}), nullptr) << app;
  }
}

TEST(StreamSet, SixteenAndSixtyFourTileJobsShareCoreZero) {
  // Core c's stream is a function of (app, c, seed) alone, so a 16-tile
  // w6 job and a 64-tile w6x4 job share their first sixteen cores' streams,
  // and a sweep of the two matches each run alone.
  sim::MachineConfig m16 = sim::config16();
  sim::MachineConfig m64 = sim::config64();
  for (sim::MachineConfig* m : {&m16, &m64}) {
    m->warmup_epochs = 5;
    m->measure_epochs = 5;
  }
  const Mix w6 = sim::mix_for_config(m16, "w6");
  const Mix w6x4 = sim::mix_for_config(m64, "w6");
  std::vector<StreamKey> uses = sim::Chip::stream_keys(m16, w6.apps);
  const std::vector<StreamKey> k64 = sim::Chip::stream_keys(m64, w6x4.apps);
  uses.insert(uses.end(), k64.begin(), k64.end());
  const StreamSet set(uses);
  const StreamKey core0{spec_profile(w6.apps[0]).short_name, 0, m16.seed};
  ASSERT_TRUE(epoch_invariant(spec_profile(w6.apps[0])));
  EXPECT_NE(set.find(core0), nullptr);
  EXPECT_EQ(set.find({core0.app, 16, m16.seed}), nullptr);  // 64-tile only.

  const std::vector<sim::MixResult> swept = sim::run_sweep(
      {{m16, w6, sim::SchemeKind::kDelta, {}}, {m64, w6x4, sim::SchemeKind::kSnuca, {}}}, 2);
  ASSERT_EQ(swept.size(), 2u);
  const auto summary = [](const sim::MixResult& r) {
    return sim::json_summary(std::span<const sim::MixResult>(&r, 1));
  };
  EXPECT_EQ(summary(swept[0]), summary(sim::run_mix(m16, w6, sim::SchemeKind::kDelta)));
  EXPECT_EQ(summary(swept[1]), summary(sim::run_mix(m64, w6x4, sim::SchemeKind::kSnuca)));
}

TEST(Mixes, FifteenMixesOfSixteen) {
  const auto& mixes = table4_mixes();
  ASSERT_EQ(mixes.size(), 15u);
  for (const auto& m : mixes) {
    EXPECT_EQ(m.apps.size(), 16u) << m.name;
    for (const auto& a : m.apps) EXPECT_TRUE(has_spec_profile(a)) << m.name << " " << a;
  }
}

TEST(Mixes, W2ContainsThePaperCaseStudyApps) {
  const Mix& w2 = table4_mix("w2");
  // Sec. IV-A analyses xalancbmk and soplex inside w2 (see the transcription
  // note in mixes.hpp).
  EXPECT_NE(std::find(w2.apps.begin(), w2.apps.end(), "xa"), w2.apps.end());
  EXPECT_NE(std::find(w2.apps.begin(), w2.apps.end(), "so"), w2.apps.end());
}

TEST(Mixes, W13ContainsLbmAndLibquantum) {
  const Mix& w13 = table4_mix("w13");
  EXPECT_NE(std::find(w13.apps.begin(), w13.apps.end(), "lb"), w13.apps.end());
  EXPECT_NE(std::find(w13.apps.begin(), w13.apps.end(), "li"), w13.apps.end());
}

TEST(Mixes, Replicate4Makes64) {
  const Mix big = replicate4(table4_mix("w1"));
  EXPECT_EQ(big.apps.size(), 64u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(big.apps[i], big.apps[i + 16]);
    EXPECT_EQ(big.apps[i], big.apps[i + 48]);
  }
}

TEST(Mixes, UnknownMixThrows) {
  EXPECT_THROW(table4_mix("w99"), std::out_of_range);
}

}  // namespace
}  // namespace delta::workload
