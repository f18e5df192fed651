// Parameterized controller tests across machine shapes: mesh geometry and
// bank associativity must not break the protocol's invariants.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "core/controller.hpp"

namespace delta::core {
namespace {

using Shape = std::tuple<int, int, int>;  // mesh_w, mesh_h, ways_per_bank.

umon::Umon hungry_umon(std::uint64_t seed) {
  umon::UmonConfig cfg;
  cfg.max_ways = 96;
  cfg.set_dilution = 4;
  umon::Umon u(cfg);
  Rng rng(seed);
  for (int i = 0; i < 120'000; ++i) u.access(rng.below(48 * 512));
  return u;
}

class ControllerShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(ControllerShapes, WaysConservedAndFloorsHeld) {
  const auto [w, h, ways] = GetParam();
  noc::Mesh mesh(w, h);
  DeltaParams params;
  params.max_ways_per_app = ways * 4;
  params.min_ways = std::min(4, ways / 2);
  params.inter_delta_ways = std::min(4, ways / 4 + 1);
  DeltaController ctrl(mesh, params, ways);

  const int n = mesh.tiles();
  std::vector<umon::Umon> umons;
  for (int i = 0; i < n; ++i) umons.push_back(hungry_umon(50 + i));
  std::vector<TileInput> in(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    in[static_cast<std::size_t>(i)] =
        TileInput{&umons[static_cast<std::size_t>(i)],
                  1.0 + (i % 4), i % 3 != 2};  // A third of the tiles idle.
  }

  for (std::uint64_t e = 0; e <= 120; ++e) {
    ctrl.tick(e, in);
    int total = 0;
    for (BankId b = 0; b < n; ++b) {
      int bank_total = 0;
      for (CoreId p : ctrl.wp(b).partitions()) bank_total += ctrl.wp(b).ways_of(p);
      ASSERT_EQ(bank_total, ways) << "bank " << b << " epoch " << e;
      total += bank_total;
    }
    ASSERT_EQ(total, n * ways);
    for (CoreId c = 0; c < n; ++c) {
      if (!in[static_cast<std::size_t>(c)].active) continue;
      ASSERT_LE(ctrl.total_ways(c), params.max_ways_per_app) << c;
      // Active cores keep their home floor.
      ASSERT_GE(ctrl.wp(c).ways_of(c), params.min_ways) << c;
    }
  }
}

TEST_P(ControllerShapes, CbtAlwaysCoversChunkSpace) {
  const auto [w, h, ways] = GetParam();
  noc::Mesh mesh(w, h);
  DeltaParams params;
  params.max_ways_per_app = ways * 4;
  DeltaController ctrl(mesh, params, ways);

  const int n = mesh.tiles();
  std::vector<umon::Umon> umons;
  for (int i = 0; i < n; ++i) umons.push_back(hungry_umon(90 + i));
  std::vector<TileInput> in(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    in[static_cast<std::size_t>(i)] =
        TileInput{&umons[static_cast<std::size_t>(i)], 2.0, true};

  for (std::uint64_t e = 0; e <= 60; ++e) ctrl.tick(e, in);
  for (CoreId c = 0; c < n; ++c) {
    for (int chunk = 0; chunk < mem::kNumChunks; ++chunk) {
      const BankId b = ctrl.cbt(c).bank_for_chunk(chunk);
      ASSERT_GE(b, 0);
      ASSERT_LT(b, n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ControllerShapes,
    ::testing::Values(Shape{2, 2, 16}, Shape{4, 1, 16}, Shape{4, 4, 16},
                      Shape{2, 2, 8}, Shape{4, 4, 8}, Shape{2, 4, 32},
                      Shape{8, 8, 16}),
    [](const auto& inf) {
      // std::get (not structured bindings): commas inside the binding list
      // would split the INSTANTIATE macro's arguments.  One snprintf, not a
      // chain of std::string `+`: GCC 12 at -O3 reports a false -Wrestrict
      // inside the inlined concatenations.
      char name[48];
      std::snprintf(name, sizeof name, "m%dx%dw%d", std::get<0>(inf.param),
                    std::get<1>(inf.param), std::get<2>(inf.param));
      return std::string(name);
    });

}  // namespace
}  // namespace delta::core
