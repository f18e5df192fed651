// Figure 10: per-application performance in w2 on the 64-core CMP (ideal
// and private normalized to DELTA).  Each application appears 4x (the mix
// is replicated); we report the per-slot mean over the four replicas.
//
// Paper result: same trend as the 16-core case — the farsighted ideal wins
// on xalancbmk/soplex, DELTA matches or beats it elsewhere.
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace delta;
  const bench::Cli cli(argc, argv);
  bench::print_header("Fig. 10 — per-application performance, w2, 64 cores",
                      "Sec. IV-B, Fig. 10");

  const sim::MachineConfig cfg = sim::config64();
  const std::vector<sim::MixResult> c = bench::run_comparison(cfg, "w2", cli.jobs());

  TextTable table({"slot", "app", "ideal/delta", "private/delta"});
  for (int slot = 0; slot < 16; ++slot) {
    std::vector<double> ideal_r, priv_r;
    for (int rep = 0; rep < 4; ++rep) {
      const std::size_t core = static_cast<std::size_t>(slot + rep * 16);
      const double d = c[bench::kDelta].apps[core].ipc;
      ideal_r.push_back(c[bench::kIdeal].apps[core].ipc / d);
      priv_r.push_back(c[bench::kPrivate].apps[core].ipc / d);
    }
    table.add_row({std::to_string(slot),
                   c[bench::kDelta].apps[static_cast<std::size_t>(slot)].app,
                   fmt(geomean(ideal_r), 3), fmt(geomean(priv_r), 3)});
  }
  std::printf("\nPer-slot geomean over the 4 replicas:\n%s\n", table.str().c_str());
  return 0;
}
