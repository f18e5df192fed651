// Tests of the integrated multithreaded mode (Sec. II-E executed directly).
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "sim/mt_sim.hpp"
#include "workload/splash.hpp"

namespace delta::sim {
namespace {

MtConfig fast() {
  MtConfig c;
  c.accesses_per_thread = 25'000;
  return c;
}

TEST(MtSim, Deterministic) {
  const auto& p = workload::splash_profile("fft");
  const MtResult a = run_multithreaded(config16(), p, SchemeKind::kDelta, fast());
  const MtResult b = run_multithreaded(config16(), p, SchemeKind::kDelta, fast());
  EXPECT_DOUBLE_EQ(a.roi_cycles, b.roi_cycles);
  EXPECT_EQ(a.reclassifications, b.reclassifications);
}

TEST(MtSim, ClassifierSeesSharingStructure) {
  const auto& p = workload::splash_profile("cholesky");
  const MtResult r = run_multithreaded(config16(), p, SchemeKind::kDelta, fast());
  EXPECT_GT(r.private_pages, 0u);
  EXPECT_GT(r.shared_pages, 0u);
  EXPECT_GT(r.reclassifications, 0u);
  const double priv_pct = 100.0 * static_cast<double>(r.private_pages) /
                          static_cast<double>(r.private_pages + r.shared_pages);
  EXPECT_NEAR(priv_pct, p.target_private_pages_pct, 10.0);
}

TEST(MtSim, PageFlipsTriggerInvalidations) {
  const auto& p = workload::splash_profile("barnes");
  const MtResult r = run_multithreaded(config16(), p, SchemeKind::kDelta, fast());
  EXPECT_GT(r.page_invalidation_lines, 0u);
}

TEST(MtSim, AllPrivateAppBehavesLikePrivateConfig) {
  // water.nsq is ~all-private: DELTA's mapping degenerates to home banks,
  // so its ROI cycles must track the private configuration closely and its
  // NoC distance must be near zero.
  const auto& p = workload::splash_profile("water.nsq");
  const MtResult d = run_multithreaded(config16(), p, SchemeKind::kDelta, fast());
  const MtResult pr = run_multithreaded(config16(), p, SchemeKind::kPrivate, fast());
  EXPECT_NEAR(d.roi_cycles / pr.roi_cycles, 1.0, 0.05);
  EXPECT_LT(d.mean_hops, 0.3);
}

TEST(MtSim, AllSharedAppBehavesLikeSnuca) {
  const auto& p = workload::splash_profile("lu.ncont");
  const MtResult d = run_multithreaded(config16(), p, SchemeKind::kDelta, fast());
  const MtResult s = run_multithreaded(config16(), p, SchemeKind::kSnuca, fast());
  EXPECT_NEAR(d.roi_cycles / s.roi_cycles, 1.0, 0.08);
}

TEST(MtSim, SharedLinesHaveSingleHomeUnderDelta) {
  // Coherence safety (the Sec. II-E motivation): two threads accessing the
  // same shared line must map it to the same bank.  Indirect check: with a
  // fully-shared app, DELTA's miss rate must be close to S-NUCA's (double
  // homes would double cold misses).
  const auto& p = workload::splash_profile("radiosity");
  const MtResult d = run_multithreaded(config16(), p, SchemeKind::kDelta, fast());
  const MtResult s = run_multithreaded(config16(), p, SchemeKind::kSnuca, fast());
  EXPECT_NEAR(d.miss_rate, s.miss_rate, 0.05);
}

TEST(MtSim, DeltaBetweenBaselinesAcrossSuite) {
  MtConfig c;
  c.accesses_per_thread = 12'000;
  for (const char* name : {"barnes", "fmm", "ocean.cont", "water.sp"}) {
    const auto& p = workload::splash_profile(name);
    const MtResult d = run_multithreaded(config16(), p, SchemeKind::kDelta, c);
    const MtResult s = run_multithreaded(config16(), p, SchemeKind::kSnuca, c);
    const MtResult pr = run_multithreaded(config16(), p, SchemeKind::kPrivate, c);
    const double lo = std::min(s.roi_cycles, pr.roi_cycles) * 0.93;
    const double hi = std::max(s.roi_cycles, pr.roi_cycles) * 1.07;
    EXPECT_GE(d.roi_cycles, lo) << name;
    EXPECT_LE(d.roi_cycles, hi) << name;
  }
}

TEST(MtSim, ResultsMatchParentCapture) {
  // Pins mt_sim's exact output: every MtResult field, doubles bit-equal,
  // against values captured from the build that still carried the staged
  // bank-parallel engine (whose serial reference this loop is).  Any change
  // to the access order, the routing or the accumulation order shows here.
  struct Expected {
    SchemeKind kind;
    double roi_cycles, mean_ipc, miss_rate, mean_hops;
    std::uint64_t private_pages, shared_pages, reclassifications, invalidation_lines;
  };
  const Expected expected[] = {
      {SchemeKind::kDelta, 0x1.c9e2855555555p+20, 0x1.577d13454fbfep+0,
       0x1.49a858793dd98p-3, 0x1.b336113404ea5p-1, 496, 304, 304, 439},
      {SchemeKind::kSnuca, 0x1.e2dfc55555556p+20, 0x1.48bc15fffc74bp+0,
       0x1.46dab9f559b3cp-3, 0x1.40921ff2e48e9p+1, 496, 304, 304, 0},
      {SchemeKind::kPrivate, 0x1.c64f6p+20, 0x1.5a0c0531876d2p+0,
       0x1.808db8bac710cp-2, 0x0p+0, 496, 304, 304, 0},
  };
  MtConfig c;
  c.accesses_per_thread = 20'000;
  const auto& p = workload::splash_profile("cholesky");
  for (const Expected& e : expected) {
    const MtResult r = run_multithreaded(config16(), p, e.kind, c);
    const std::string_view k = to_string(e.kind);
    EXPECT_EQ(r.app, "cholesky") << k;
    EXPECT_EQ(r.scheme, k);
    EXPECT_EQ(r.roi_cycles, e.roi_cycles) << k;
    EXPECT_EQ(r.mean_ipc, e.mean_ipc) << k;
    EXPECT_EQ(r.miss_rate, e.miss_rate) << k;
    EXPECT_EQ(r.mean_hops, e.mean_hops) << k;
    EXPECT_EQ(r.private_pages, e.private_pages) << k;
    EXPECT_EQ(r.shared_pages, e.shared_pages) << k;
    EXPECT_EQ(r.reclassifications, e.reclassifications) << k;
    EXPECT_EQ(r.page_invalidation_lines, e.invalidation_lines) << k;
  }
}

}  // namespace
}  // namespace delta::sim
