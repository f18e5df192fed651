// Table VI: per-invocation cost of the centralized allocation algorithms
// (Lookahead, Peekahead) for 2..64 cores at 16 ways per core, measured on
// this host; plus the measured software cost of DELTA's inter- and
// intra-bank algorithms (paper: 0.015 ms / 0.007 ms at 64 cores — three
// orders of magnitude below Lookahead's 1230 ms).
//
// Absolute times differ from the paper's host; the *growth shape* is the
// reproduction target: Lookahead super-quadratic, Peekahead ~N*W, DELTA
// constant-per-tile.
#include <chrono>
#include <cstdio>
#include <functional>

#include "alloc/lookahead.hpp"
#include "alloc/peekahead.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double time_ms(const std::function<void()>& fn, int reps) {
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
}

// Convex miss curves (diminishing marginal utility — the common shape of
// real cache-sensitive applications): Lookahead's best expansion is then a
// single way per award, which is exactly the regime where its O(N*W^2)
// full rescan per award dominates and Peekahead's hull short-cut pays off.
delta::alloc::AllocRequest make_request(int cores, delta::Rng& rng) {
  delta::alloc::AllocRequest req;
  const int total = cores * 16;
  for (int a = 0; a < cores; ++a) {
    std::vector<double> m(static_cast<std::size_t>(total) + 1);
    const double base = 1000.0 + rng.uniform() * 9000.0;
    const double rate = 0.05 + rng.uniform() * 0.5;
    for (int w = 0; w <= total; ++w)
      m[static_cast<std::size_t>(w)] = base / (1.0 + rate * w);
    req.curves.emplace_back(std::move(m));
  }
  req.total_ways = total;
  req.min_ways = 1;
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  const delta::bench::Cli cli(argc, argv);
  using namespace delta;
  bench::print_header("Table VI — allocation-algorithm overhead per invocation",
                      "Sec. IV-E1, Table VI");

  Rng rng(2024);
  TextTable table({"cores", "lookahead(ms)", "peekahead(ms)", "la steps", "pa steps"});
  for (int cores : {2, 4, 8, 16, 32, 64}) {
    const alloc::AllocRequest req = make_request(cores, rng);
    const int reps = cores <= 8 ? 20 : (cores <= 16 ? 5 : 1);
    alloc::AllocResult la, pa;
    const double t_la = time_ms([&] { la = alloc::lookahead(req); }, reps);
    const double t_pa = time_ms([&] { pa = alloc::peekahead(req); }, reps);
    table.add_row({std::to_string(cores), fmt(t_la, 3), fmt(t_pa, 3),
                   std::to_string(la.steps), std::to_string(pa.steps)});
    std::fflush(stdout);
  }
  std::printf("\n%s\n", table.str().c_str());

  // DELTA's software cost at 64 cores: one full inter+intra tick.
  noc::Mesh mesh(8, 8);
  core::DeltaParams params;
  params.max_ways_per_app = 768;
  core::DeltaController ctrl(mesh, params, 16);
  umon::UmonConfig ucfg;
  ucfg.max_ways = 768;
  std::vector<umon::Umon> umons;
  umons.reserve(64);
  Rng wr(7);
  for (int i = 0; i < 64; ++i) {
    umons.emplace_back(ucfg);
    for (int a = 0; a < 20'000; ++a) umons.back().access(wr.below(512 * 32));
  }
  std::vector<core::TileInput> inputs(64);
  for (int i = 0; i < 64; ++i)
    inputs[i] = {&umons[static_cast<std::size_t>(i)], 2.0, true,
                 static_cast<std::uint32_t>(i + 1)};
  std::uint64_t e = 0;
  const double t_delta = time_ms(
      [&] {
        ctrl.tick(e, inputs);
        e += 10;  // Every call hits both the inter and intra cadence.
      },
      50);
  std::printf("DELTA inter+intra tick, 64 tiles: %.4f ms per invocation\n", t_delta);
  std::printf("(paper: lookahead 1230 ms, peekahead 13.1 ms, DELTA 0.015+0.007 ms "
              "at 64 cores — expect the same orders-of-magnitude ordering)\n");
  return 0;
}
