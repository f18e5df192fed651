// Unit tests of the Sec. IV-C estimation pipeline (beyond the end-to-end
// shape checks in test_integration).
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/splash_estimator.hpp"
#include "workload/splash.hpp"

namespace delta::sim {
namespace {

SplashConfig fast() {
  SplashConfig c;
  c.accesses_per_thread = 12'000;
  return c;
}

TEST(SplashEstimator, DeterministicAcrossCalls) {
  const auto& p = workload::splash_profile("fft");
  const SplashEstimate a = estimate_splash(p, config16(), fast());
  const SplashEstimate b = estimate_splash(p, config16(), fast());
  EXPECT_DOUBLE_EQ(a.delta_cycles, b.delta_cycles);
  EXPECT_DOUBLE_EQ(a.snuca_cycles, b.snuca_cycles);
  EXPECT_DOUBLE_EQ(a.private_pages_pct, b.private_pages_pct);
}

TEST(SplashEstimator, ClassifierTracksGroundTruthSharing) {
  for (const char* name : {"barnes", "cholesky", "water.nsq", "lu.cont"}) {
    const auto& p = workload::splash_profile(name);
    const SplashEstimate e = estimate_splash(p, config16(), fast());
    EXPECT_NEAR(e.private_pages_pct, p.target_private_pages_pct, 8.0) << name;
  }
}

TEST(SplashEstimator, PiecewiseReconstructionFormula) {
  const auto& p = workload::splash_profile("fmm");
  const SplashEstimate e = estimate_splash(p, config16(), fast());
  const double f = e.private_pages_pct / 100.0;
  EXPECT_NEAR(e.delta_cycles, f * e.private_cycles + (1.0 - f) * e.snuca_cycles,
              1e-6 * e.delta_cycles);
  EXPECT_NEAR(e.delta_speedup, e.snuca_cycles / e.delta_cycles, 1e-12);
}

TEST(SplashEstimator, PositiveCyclesForAllApps) {
  for (const auto& p : workload::splash_profiles()) {
    const SplashEstimate e = estimate_splash(p, config16(), fast());
    EXPECT_GT(e.snuca_cycles, 0.0) << p.name;
    EXPECT_GT(e.private_cycles, 0.0) << p.name;
    EXPECT_GT(e.delta_cycles, 0.0) << p.name;
  }
}

TEST(SplashEstimator, HeavySharingPunishesPrivateConfig) {
  // The private configuration replicates shared lines and eats coherence
  // invalidations; with a >6 MB shared region in 512 KB banks it must lose
  // to S-NUCA's single shared copy.
  // Needs enough accesses that the 6 MB shared region is past cold misses.
  SplashConfig scfg;
  scfg.accesses_per_thread = 40'000;
  const SplashEstimate lu =
      estimate_splash(workload::splash_profile("lu.cont"), config16(), scfg);
  EXPECT_GT(lu.private_cycles, lu.snuca_cycles);
}

TEST(SplashEstimator, AllPrivateAppPrefersPrivateConfig) {
  const SplashEstimate w =
      estimate_splash(workload::splash_profile("water.nsq"), config16(), fast());
  EXPECT_LT(w.private_cycles, w.snuca_cycles);
}

TEST(SplashEstimator, ResultsMatchParentCapture) {
  // Pins the SPLASH path's exact output: every SplashEstimate field and every
  // SharingMeasurement field, doubles bit-equal, against values captured
  // before the path moved from ordered maps and the page classifier to
  // dense per-page and per-block tables.  Any change to the generator, the
  // sharing count, either baseline or the reconstruction shows here.
  struct Expected {
    const char* app;
    double private_pages_pct, private_blocks_pct, snuca_cycles, private_cycles,
        delta_cycles, delta_speedup, private_speedup;
    std::uint64_t pages_touched, blocks_touched;
  };
  const Expected expected[] = {
      {"cholesky", 0x1.fp+5, 0x1.0ad01433de91dp+6, 0x1.e1fp+20, 0x1.c4464p+20,
       0x1.cf8bep+20, 0x1.0a2820cd2cba7p+0, 0x1.10ca468259e67p+0, 800, 51092},
      {"lu.ncont", 0x1.fd73e68701461p-1, 0x1.1698f6ef604b3p+4, 0x1.9ff92e8ba2e8cp+20,
       0x1.b7941c427e568p+20, 0x1.a0354f7a59f2cp+20, 0x1.ffb60854ce3e4p-1,
       0x1.e4817ca526081p-1, 1608, 97741},
      {"ocean.cont", 0x1.3p+5, 0x1.8c56f3169bebcp+6, 0x1.17a89b6db6db7p+20,
       0x1.f278b6db6db6ep+19, 0x1.0c191277f44c1p+20, 0x1.0b09fc5bee7bbp+0,
       0x1.1f3f9f48a577dp+0, 800, 46990},
      {"water.nsq", 0x1.8f31f6ba76788p+6, 0x1.8f308fc7dcabbp+6, 0x1.cc7c3p+21,
       0x1.afa6ep+21, 0x1.afb5ba0b54fd7p+21, 0x1.11103e6887a93p+0,
       0x1.1119a395f8a4ep+0, 994, 63186},
  };
  SplashConfig c;
  c.accesses_per_thread = 20'000;
  for (const Expected& x : expected) {
    const auto& p = workload::splash_profile(x.app);
    const SplashEstimate e = estimate_splash(p, config16(), c);
    EXPECT_EQ(e.app, x.app);
    EXPECT_EQ(e.private_pages_pct, x.private_pages_pct) << x.app;
    EXPECT_EQ(e.private_blocks_pct, x.private_blocks_pct) << x.app;
    EXPECT_EQ(e.snuca_cycles, x.snuca_cycles) << x.app;
    EXPECT_EQ(e.private_cycles, x.private_cycles) << x.app;
    EXPECT_EQ(e.delta_cycles, x.delta_cycles) << x.app;
    EXPECT_EQ(e.delta_speedup, x.delta_speedup) << x.app;
    EXPECT_EQ(e.private_speedup, x.private_speedup) << x.app;

    const workload::SharingMeasurement m = workload::measure_sharing(
        p, c.accesses_per_thread * static_cast<std::uint64_t>(p.threads), c.seed);
    EXPECT_EQ(m.private_pages_pct, x.private_pages_pct) << x.app;
    EXPECT_EQ(m.private_blocks_pct, x.private_blocks_pct) << x.app;
    EXPECT_EQ(m.pages_touched, x.pages_touched) << x.app;
    EXPECT_EQ(m.blocks_touched, x.blocks_touched) << x.app;
  }
}

}  // namespace
}  // namespace delta::sim
