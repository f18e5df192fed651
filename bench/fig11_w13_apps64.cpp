// Figure 11: per-application performance in w13 on the 64-core CMP — the
// mix where DELTA *beats* the ideal centralized scheme.
//
// Paper result: the farsighted centralized allocator gives >250 ways to
// lbm/libquantum (their huge loops fall inside the 24 MB / 768-way 64-core
// allocation cap), starving other applications; DELTA never chases those
// far-away cliffs and wins overall.
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace delta;
  const bench::Cli cli(argc, argv);
  bench::print_header("Fig. 11 — per-application performance, w13, 64 cores",
                      "Sec. IV-B, Fig. 11");

  const sim::MachineConfig cfg = sim::config64();
  const std::vector<sim::MixResult> c = bench::run_comparison(cfg, "w13", cli.jobs());

  TextTable table({"slot", "app", "ideal/delta", "ways(ideal)", "ways(delta)"});
  for (int slot = 0; slot < 16; ++slot) {
    std::vector<double> ideal_r;
    double wi = 0.0, wd = 0.0;
    for (int rep = 0; rep < 4; ++rep) {
      const std::size_t core = static_cast<std::size_t>(slot + rep * 16);
      ideal_r.push_back(c[bench::kIdeal].apps[core].ipc /
                        c[bench::kDelta].apps[core].ipc);
      wi += c[bench::kIdeal].apps[core].avg_ways / 4.0;
      wd += c[bench::kDelta].apps[core].avg_ways / 4.0;
    }
    table.add_row({std::to_string(slot),
                   c[bench::kDelta].apps[static_cast<std::size_t>(slot)].app,
                   fmt(geomean(ideal_r), 3), fmt(wi, 1), fmt(wd, 1)});
  }
  std::printf("\nPer-slot geomean over the 4 replicas:\n%s\n", table.str().c_str());
  std::printf("workload speedup vs S-NUCA: ideal %.3f, delta %.3f "
              "(paper: delta > ideal on w13)\n",
              sim::speedup(c[bench::kIdeal], c[bench::kSnuca]),
              sim::speedup(c[bench::kDelta], c[bench::kSnuca]));
  return 0;
}
