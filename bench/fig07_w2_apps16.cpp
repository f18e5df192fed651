// Figure 7: per-application performance in w2 on the 16-core CMP — ideal
// centralized and private, normalized to DELTA.
//
// Paper result: most applications perform on par; the farsighted ideal
// scheme beats DELTA by ~45%/~35% on xalancbmk and soplex (miss-curve
// cliffs DELTA's windowed gain cannot see), while DELTA still beats the
// private configuration on those apps (+12%/+36%).
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace delta;
  const bench::Cli cli(argc, argv);
  bench::print_header("Fig. 7 — per-application performance, w2, 16 cores",
                      "Sec. IV-A, Fig. 7");

  const sim::MachineConfig cfg = sim::config16();
  const std::vector<sim::MixResult> c = bench::run_comparison(cfg, "w2", cli.jobs());

  TextTable table({"core", "app", "ideal/delta", "private/delta", "ways(ideal)", "ways(delta)"});
  for (std::size_t i = 0; i < c[bench::kDelta].apps.size(); ++i) {
    const auto& d = c[bench::kDelta].apps[i];
    table.add_row({std::to_string(i), d.app,
                   fmt(c[bench::kIdeal].apps[i].ipc / d.ipc, 3),
                   fmt(c[bench::kPrivate].apps[i].ipc / d.ipc, 3),
                   fmt(c[bench::kIdeal].apps[i].avg_ways, 1), fmt(d.avg_ways, 1)});
  }
  std::printf("\n%s\n", table.str().c_str());
  std::printf("paper: ideal beats delta by ~45%%/~35%% on xalancbmk/soplex "
              "(farsighted vs nearsighted); delta beats private there.\n");
  return 0;
}
