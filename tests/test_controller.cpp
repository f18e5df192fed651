// Behavioural tests of the distributed DELTA controller (Alg. 1 + Alg. 2).
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "core/controller.hpp"

namespace delta::core {
namespace {

constexpr int kWays = 16;

/// UMON pre-loaded with a uniform working set of `footprint_ways`.
umon::Umon make_umon(int footprint_ways, std::uint64_t seed = 7,
                     std::uint64_t accesses = 200'000) {
  umon::UmonConfig cfg;
  cfg.max_ways = 64;
  cfg.set_dilution = 4;
  umon::Umon u(cfg);
  Rng rng(seed);
  const BlockAddr lines = static_cast<BlockAddr>(footprint_ways) * 512;
  for (std::uint64_t i = 0; i < accesses; ++i) u.access(rng.below(lines));
  return u;
}

struct Fixture {
  noc::Mesh mesh;
  DeltaParams params;
  DeltaController ctrl;
  std::vector<umon::Umon> umons;
  std::vector<TileInput> inputs;

  explicit Fixture(int w, int h, std::vector<int> footprints)
      : mesh(w, h), params{}, ctrl(mesh, make_params(), kWays) {
    for (std::size_t i = 0; i < footprints.size(); ++i) {
      if (footprints[i] > 0) {
        umons.push_back(make_umon(footprints[i], 100 + i));
      } else {
        umons.emplace_back(umon::UmonConfig{.max_ways = 64});
      }
    }
    inputs.resize(footprints.size());
    for (std::size_t i = 0; i < footprints.size(); ++i) {
      inputs[i].umon = &umons[i];
      inputs[i].mlp = 2.0;
      inputs[i].active = footprints[i] > 0;
    }
  }

  static DeltaParams make_params() {
    DeltaParams p;
    p.max_ways_per_app = 64;
    return p;
  }

  TickResult tick(std::uint64_t epoch, noc::TrafficStats* t = nullptr) {
    return ctrl.tick(epoch, inputs, t);
  }

  int total_all_ways() const {
    int total = 0;
    for (int b = 0; b < mesh.tiles(); ++b)
      for (int w = 0; w < kWays; ++w)
        if (ctrl.wp(b).owner(w) != kInvalidCore) ++total;
    return total;
  }
};

TEST(Controller, InitialEqualPartition) {
  Fixture f(2, 2, {8, 8, 8, 8});
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(f.ctrl.total_ways(c), kWays);
    EXPECT_EQ(f.ctrl.ways_outside_home(c), 0);
    EXPECT_EQ(f.ctrl.banks_of(c).size(), 1u);
  }
}

TEST(Controller, HungryAppExpandsIntoContentNeighbour) {
  // Core 0 wants 32 ways, the rest are content with 4-way footprints.
  Fixture f(2, 2, {32, 4, 4, 4});
  for (int e = 0; e <= 100; ++e) f.tick(e);
  EXPECT_GT(f.ctrl.total_ways(0), kWays);
  EXPECT_GT(f.ctrl.ways_outside_home(0), 0);
  EXPECT_GE(f.ctrl.banks_of(0).size(), 2u);
}

TEST(Controller, SymmetricHungryAppsHoldTheLine) {
  // Everyone hungry and equally so: pain defends, nobody invades much.
  Fixture f(2, 2, {32, 32, 32, 32});
  for (int e = 0; e <= 100; ++e) f.tick(e);
  for (int c = 0; c < 4; ++c)
    EXPECT_GE(f.ctrl.wp(c).ways_of(c), kWays - Fixture::make_params().inter_delta_ways)
        << "core " << c << " lost its home bank to a peer with equal pain";
}

TEST(Controller, NoChallengesBelowGainThreshold) {
  Fixture f(2, 2, {4, 4, 4, 4});  // Everyone fits comfortably.
  TickResult total{};
  for (int e = 0; e <= 50; ++e) {
    const TickResult r = f.tick(e);
    total.challenges_sent += r.challenges_sent;
  }
  EXPECT_EQ(total.challenges_sent, 0);
}

TEST(Controller, IdleBankGrabbedWholesale) {
  Fixture f(2, 2, {32, 0, 0, 0});
  int grabbed_epoch = -1;
  for (int e = 0; e <= 60 && grabbed_epoch < 0; ++e) {
    f.tick(e);
    for (int b = 1; b < 4; ++b)
      if (f.ctrl.wp(b).ways_of(0) == kWays) grabbed_epoch = e;
  }
  EXPECT_GE(grabbed_epoch, 0) << "hungry core never captured an idle bank";
  EXPECT_GT(f.ctrl.stats().idle_grabs, 0u);
}

TEST(Controller, WaysConservedUnderChurn) {
  Fixture f(2, 2, {32, 24, 16, 8});
  for (int e = 0; e <= 200; ++e) {
    f.tick(e);
    // Invariant: every way of every bank has exactly one owner and the
    // per-bank total is constant.
    EXPECT_EQ(f.total_all_ways(), 4 * kWays);
    for (int b = 0; b < 4; ++b) {
      int bank_total = 0;
      for (CoreId p : f.ctrl.wp(b).partitions()) bank_total += f.ctrl.wp(b).ways_of(p);
      EXPECT_EQ(bank_total, kWays);
    }
  }
}

TEST(Controller, HomeFloorNeverViolated) {
  Fixture f(2, 2, {48, 48, 4, 4});
  for (int e = 0; e <= 300; ++e) {
    f.tick(e);
    for (int c = 0; c < 4; ++c)
      EXPECT_GE(f.ctrl.wp(c).ways_of(c), Fixture::make_params().min_ways)
          << "core " << c << " epoch " << e;
  }
}

TEST(Controller, MaxWaysCapRespected) {
  Fixture f(2, 2, {64, 4, 4, 4});
  for (int e = 0; e <= 400; ++e) f.tick(e);
  EXPECT_LE(f.ctrl.total_ways(0), Fixture::make_params().max_ways_per_app);
}

TEST(Controller, CbtMapsOnlyHeldBanks) {
  Fixture f(2, 2, {40, 4, 4, 4});
  for (int e = 0; e <= 150; ++e) {
    f.tick(e);
    for (int c = 0; c < 4; ++c) {
      const auto& held = f.ctrl.banks_of(c);
      for (const auto& r : f.ctrl.cbt(c).ranges()) {
        EXPECT_NE(std::find(held.begin(), held.end(), r.bank), held.end())
            << "core " << c << " CBT maps un-held bank " << r.bank;
      }
    }
  }
}

TEST(Controller, RemapEventsReferencePreviousBank) {
  Fixture f(2, 2, {40, 4, 4, 4});
  bool saw_remap = false;
  for (int e = 0; e <= 100; ++e) {
    const TickResult r = f.tick(e);
    for (const RemapChunk& rc : r.remaps) {
      saw_remap = true;
      EXPECT_GE(rc.chunk, 0);
      EXPECT_LT(rc.chunk, mem::kNumChunks);
      EXPECT_GE(rc.old_bank, 0);
      // After the tick, the chunk must map somewhere else.
      EXPECT_NE(f.ctrl.cbt(rc.core).bank_for_chunk(rc.chunk), rc.old_bank);
    }
  }
  EXPECT_TRUE(saw_remap);
}

TEST(Controller, ChallengeTargetsClosestFirst) {
  // 1x4 row mesh: tile 0's first challenge must go to tile 1.
  noc::Mesh mesh(4, 1);
  DeltaParams params = Fixture::make_params();
  DeltaController ctrl(mesh, params, kWays);
  umon::Umon hungry = make_umon(32);
  umon::Umon content = make_umon(2);
  std::vector<TileInput> in(4);
  in[0] = {&hungry, 2.0, true};
  for (int i = 1; i < 4; ++i) in[i] = {&content, 2.0, true};
  ctrl.tick(0, in);  // First inter tick: core 0 challenges tile 1.
  EXPECT_GT(ctrl.wp(1).ways_of(0), 0);
  EXPECT_EQ(ctrl.wp(2).ways_of(0), 0);
  EXPECT_EQ(ctrl.wp(3).ways_of(0), 0);
}

TEST(Controller, IntraBankShiftsWaysTowardLargerGain) {
  // Start: core 0 expands into bank 1.  Then core 0 is hungry (big
  // footprint) while core 1 is content: the intra-bank algorithm should
  // keep moving bank-1 ways from core 1 to core 0 down to the home floor.
  Fixture f(2, 2, {48, 4, 4, 4});
  for (int e = 0; e <= 300; ++e) f.tick(e);
  EXPECT_GE(f.ctrl.wp(1).ways_of(0), 8) << "intra-bank growth did not happen";
  EXPECT_GE(f.ctrl.wp(1).ways_of(1), Fixture::make_params().min_ways);
}

TEST(Controller, InterTickCadence) {
  Fixture f(2, 2, {32, 4, 4, 4});
  noc::TrafficStats t;
  // Epoch 1 is not an inter boundary (default interval 10): no challenges.
  f.ctrl.tick(1, f.inputs, &t);
  EXPECT_EQ(t.total(noc::MsgType::kChallenge), 0u);
  f.ctrl.tick(10, f.inputs, &t);
  EXPECT_GT(t.total(noc::MsgType::kChallenge), 0u);
}

TEST(Controller, MessageBudgetPerInterval) {
  // Worst case per inter interval: one challenge + one response per tile.
  Fixture f(2, 2, {32, 32, 32, 32});
  noc::TrafficStats t;
  f.ctrl.tick(0, f.inputs, &t);
  EXPECT_LE(t.total(noc::MsgType::kChallenge), 4u);
  EXPECT_EQ(t.total(noc::MsgType::kChallenge),
            t.total(noc::MsgType::kChallengeResponse));
}

TEST(Controller, StatsAccumulate) {
  Fixture f(2, 2, {32, 4, 4, 4});
  for (int e = 0; e <= 100; ++e) f.tick(e);
  EXPECT_GT(f.ctrl.stats().challenges_sent, 0u);
  EXPECT_GT(f.ctrl.stats().challenges_won, 0u);
  EXPECT_GT(f.ctrl.stats().alu_ops, 0u);
  EXPECT_GT(f.ctrl.stats().cbt_rebuilds, 0u);
}

TEST(Controller, ResetRestoresEqualPartition) {
  Fixture f(2, 2, {32, 4, 4, 4});
  for (int e = 0; e <= 100; ++e) f.tick(e);
  f.ctrl.reset();
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(f.ctrl.total_ways(c), kWays);
    EXPECT_EQ(f.ctrl.banks_of(c).size(), 1u);
  }
}

}  // namespace
}  // namespace delta::core
