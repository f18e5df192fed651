// Figure 8: per-application performance in w3 (thrashing + low-sensitive)
// on the 16-core CMP — a mix where DELTA matches the ideal scheme.
//
// Paper result: individual applications mostly perform as well as or better
// than the centralized scheme even though DELTA is nearsighted.
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace delta;
  const bench::Cli cli(argc, argv);
  bench::print_header("Fig. 8 — per-application performance, w3, 16 cores",
                      "Sec. IV-A, Fig. 8");

  const sim::MachineConfig cfg = sim::config16();
  const std::vector<sim::MixResult> c = bench::run_comparison(cfg, "w3", cli.jobs());

  TextTable table({"core", "app", "ideal/delta", "private/delta"});
  std::vector<double> ratios;
  for (std::size_t i = 0; i < c[bench::kDelta].apps.size(); ++i) {
    const auto& d = c[bench::kDelta].apps[i];
    const double r = c[bench::kIdeal].apps[i].ipc / d.ipc;
    ratios.push_back(r);
    table.add_row({std::to_string(i), d.app, fmt(r, 3),
                   fmt(c[bench::kPrivate].apps[i].ipc / d.ipc, 3)});
  }
  std::printf("\n%s\n", table.str().c_str());
  std::printf("geomean ideal/delta = %.3f (paper: ~1.0 — DELTA on par on w3)\n",
              geomean(ratios));
  return 0;
}
