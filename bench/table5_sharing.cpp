// Table V: percentage of private pages and private blocks per SPLASH2
// application, measured by streaming each synthetic generator through the
// sharing instrumentation (the paper's pintool equivalent).
//
// Targets marked '~' are estimates: the block row of Table V is partially
// unreadable in our source text and was gap-filled (see DESIGN.md).
#include <cstdio>

#include "bench_util.hpp"
#include "workload/splash.hpp"

int main(int argc, char** argv) {
  using namespace delta;
  const bench::Cli cli(argc, argv);
  bench::print_header("Table V — private pages/blocks per SPLASH2 app",
                      "Sec. IV-C, Table V");

  TextTable table({"app", "pages% (meas)", "pages% (paper)", "blocks% (meas)",
                   "blocks% (paper)"});
  const auto& profiles = workload::splash_profiles();
  const std::vector<workload::SharingMeasurement> measured =
      bench::parallel_map(profiles.size(), cli.jobs(), [&](std::size_t i) {
        return workload::measure_sharing(profiles[i], 800'000, 7);
      });
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& p = profiles[i];
    const workload::SharingMeasurement& m = measured[i];
    table.add_row({p.name, fmt(m.private_pages_pct, 1),
                   fmt(p.target_private_pages_pct, 1), fmt(m.private_blocks_pct, 1),
                   (p.block_target_estimated ? "~" : "") +
                       fmt(p.target_private_blocks_pct, 1)});
  }
  std::printf("\n%s\n", table.str().c_str());
  return 0;
}
