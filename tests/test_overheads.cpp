// Tests of the Sec. IV-E overhead accounting: storage formulas, message
// budgets and the complexity gap between Lookahead, Peekahead and DELTA.
#include <gtest/gtest.h>

#include "alloc/lookahead.hpp"
#include "alloc/peekahead.hpp"
#include "common/rng.hpp"
#include "core/cbt.hpp"
#include "core/controller.hpp"
#include "core/way_partition.hpp"
#include "umon/umon.hpp"

namespace delta {
namespace {

// Convex curves (monotonically diminishing marginal utility) make Lookahead
// award one way at a time — the regime where its O(N*W^2) scan bites.
umon::MissCurve convex_curve(Rng& rng, int ways) {
  const double base = 1000.0 + rng.uniform() * 5000.0;
  const double rate = 0.2 + rng.uniform();
  std::vector<double> m(static_cast<std::size_t>(ways) + 1);
  for (int w = 0; w <= ways; ++w)
    m[static_cast<std::size_t>(w)] = base / (1.0 + rate * w);
  return umon::MissCurve(std::move(m));
}

alloc::AllocRequest request_for(int cores, Rng& rng) {
  alloc::AllocRequest req;
  for (int a = 0; a < cores; ++a) req.curves.push_back(convex_curve(rng, cores * 16));
  req.total_ways = cores * 16;
  req.min_ways = 1;
  return req;
}

// The paper's Table VI trend: Lookahead's work grows super-quadratically in
// core count; Peekahead's roughly linearly in N*W.
TEST(Overheads, LookaheadStepsGrowSuperlinearly) {
  Rng rng(42);
  std::vector<std::uint64_t> la_steps, pa_steps;
  for (int cores : {4, 8, 16}) {
    const alloc::AllocRequest req = request_for(cores, rng);
    la_steps.push_back(alloc::lookahead(req).steps);
    pa_steps.push_back(alloc::peekahead(req).steps);
  }
  // Doubling cores (and with it W) should much-more-than-double Lookahead's
  // work but keep Peekahead's growth ~x4 (N and W both double).
  EXPECT_GT(la_steps[1], la_steps[0] * 4);
  EXPECT_GT(la_steps[2], la_steps[1] * 4);
  EXPECT_LT(pa_steps[2], pa_steps[1] * 8);
  EXPECT_LT(pa_steps[2] * 10, la_steps[2]);
}

TEST(Overheads, CbtStorageMatchesPaperFormula) {
  // Sec. II-C1: log2(N) x N bits per CBT.
  EXPECT_EQ(core::Cbt::storage_bits(16), 64u);
  EXPECT_EQ(core::Cbt::storage_bits(64), 384u);
}

TEST(Overheads, WpStorageMatchesPaperFormula) {
  // Sec. II-C2: N x W bits per WP unit.
  EXPECT_EQ(core::WpUnit::storage_bits(16, 16), 256u);
  EXPECT_EQ(core::WpUnit::storage_bits(64, 16), 1024u);
}

TEST(Overheads, UmonCoarseCountersShrinkStorage) {
  umon::UmonConfig coarse;
  coarse.max_ways = 192;
  coarse.coarse_ways = 4;
  umon::UmonConfig fine = coarse;
  fine.coarse_ways = 1;
  EXPECT_LT(umon::Umon(coarse).storage_bits(), umon::Umon(fine).storage_bits());
}

TEST(Overheads, DeltaTickAluOpsScaleLinearlyWithTiles) {
  auto ops_for = [](int side) {
    noc::Mesh mesh(side, side);
    core::DeltaParams params;
    core::DeltaController ctrl(mesh, params, 16);
    umon::Umon u(umon::UmonConfig{.max_ways = 32});
    std::vector<core::TileInput> in(static_cast<std::size_t>(side * side));
    for (auto& i : in) i = {&u, 2.0, true};
    ctrl.tick(0, in);
    return ctrl.stats().alu_ops;
  };
  const auto ops4 = ops_for(2);   // 4 tiles.
  const auto ops64 = ops_for(8);  // 64 tiles.
  EXPECT_GE(ops64, ops4 * 8);
  EXPECT_LE(ops64, ops4 * 40);  // Linear-ish, far from quadratic blowup.
}

TEST(Overheads, DeltaPerTileStorageIsSmall) {
  // Sec. II-B4/II-C: the whole distributed implementation needs only a few
  // hundred bits of register state per tile.
  const std::uint64_t bits16 = core::DeltaController::storage_bits_per_tile(16, 16);
  const std::uint64_t bits64 = core::DeltaController::storage_bits_per_tile(64, 16);
  // 16 tiles: (18+17)*4 + 64 + 256 = 460 bits.
  EXPECT_EQ(bits16, 460u);
  EXPECT_LT(bits64, 16u * kKiB);  // Far below even one cache line of SRAM per way.
  EXPECT_GT(bits64, bits16);
}

TEST(Overheads, WorstCaseMessageBudgetFormula) {
  // Sec. IV-E2 on 16 cores: intra 2N + inter N*10*2 = 352 messages/interval.
  const int n = 16;
  EXPECT_EQ(2 * n + n * 10 * 2, 352);
}

}  // namespace
}  // namespace delta
