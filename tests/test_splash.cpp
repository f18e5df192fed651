#include <gtest/gtest.h>

#include <algorithm>

#include "workload/splash.hpp"

namespace delta::workload {
namespace {

TEST(Splash, FourteenProfiles) {
  EXPECT_EQ(splash_profiles().size(), 14u);
  EXPECT_EQ(splash_profile("barnes").name, "barnes");
  EXPECT_THROW(splash_profile("nosuch"), std::out_of_range);
}

TEST(Splash, GeneratorRoundRobinsThreads) {
  const SplashProfile& p = splash_profile("fft");
  SplashGen gen(p, 1);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(gen.next().thread, i % p.threads);
  }
}

TEST(Splash, GeneratorDeterministic) {
  const SplashProfile& p = splash_profile("barnes");
  SplashGen a(p, 5), b(p, 5);
  for (int i = 0; i < 1000; ++i) {
    const auto x = a.next(), y = b.next();
    EXPECT_EQ(x.block, y.block);
    EXPECT_EQ(x.is_write, y.is_write);
  }
}

// measure_sharing and the directory size their dense tables from
// pages() and blocks(), so no access may fall outside them.
TEST(Splash, AccessesStayInsideThePageLayout) {
  for (const SplashProfile& p : splash_profiles()) {
    SplashGen gen(p, 3);
    BlockAddr top = 0;
    for (int i = 0; i < 50'000; ++i) top = std::max(top, gen.next().block);
    EXPECT_LT(top, gen.blocks()) << p.name;
  }
}

TEST(Splash, WriteFractionRoughlyRespected) {
  const SplashProfile& p = splash_profile("cholesky");
  SplashGen gen(p, 2);
  int writes = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) writes += gen.next().is_write;
  EXPECT_NEAR(static_cast<double>(writes) / n, p.write_frac, 0.02);
}

// Each application's measured sharing must land near its Table V target.
class SharingMatchesTableV : public ::testing::TestWithParam<std::string> {};

TEST_P(SharingMatchesTableV, PageAndBlockPercentages) {
  const SplashProfile& p = splash_profile(GetParam());
  const SharingMeasurement m = measure_sharing(p, 800'000, 7);
  EXPECT_NEAR(m.private_pages_pct, p.target_private_pages_pct, 5.0)
      << p.name << " pages";
  EXPECT_NEAR(m.private_blocks_pct, p.target_private_blocks_pct, 6.0)
      << p.name << " blocks";
}

INSTANTIATE_TEST_SUITE_P(
    AllSplash, SharingMatchesTableV,
    ::testing::Values("barnes", "cholesky", "fft", "fmm", "lu.cont", "lu.ncont",
                      "ocean.cont", "ocean.ncont", "water.sp", "radiosity",
                      "radix", "raytrace", "volrend", "water.nsq"),
    [](const auto& inf) {
      std::string s = inf.param;
      for (auto& ch : s)
        if (ch == '.') ch = '_';
      return s;
    });

TEST(Splash, OceanHasPrivateBlocksInsideSharedPages) {
  // The halo pattern: block-private% far above page-private% (Table V's
  // ocean rows: 38% pages vs 98.6% blocks).
  const SharingMeasurement m = measure_sharing(splash_profile("ocean.cont"), 800'000, 7);
  EXPECT_GT(m.private_blocks_pct, m.private_pages_pct + 40.0);
}

TEST(Splash, FmmHasSparsePrivatePages) {
  // fmm's block-private% is *below* its page-private% (sparse private pages).
  const SharingMeasurement m = measure_sharing(splash_profile("fmm"), 800'000, 7);
  EXPECT_LT(m.private_blocks_pct, m.private_pages_pct);
}

TEST(Splash, WaterNsqAlmostFullyPrivate) {
  const SharingMeasurement m = measure_sharing(splash_profile("water.nsq"), 400'000, 7);
  EXPECT_GT(m.private_pages_pct, 97.0);
}

TEST(Splash, LuAlmostFullyShared) {
  const SharingMeasurement m = measure_sharing(splash_profile("lu.ncont"), 400'000, 7);
  EXPECT_LT(m.private_pages_pct, 3.0);
}

}  // namespace
}  // namespace delta::workload
