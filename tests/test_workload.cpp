#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "workload/generator.hpp"
#include "workload/irregular.hpp"
#include "workload/mixes.hpp"
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
