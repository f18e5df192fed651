// Figure 9: performance of the 15 workload mixes (replicated 4x) on the
// 64-core CMP, normalized to unpartitioned S-NUCA.
//
// Paper result: DELTA +16% geomean (max +28%); ideal centralized +17%
// (max +35%); the DELTA-to-ideal gap narrows relative to 16 cores, and
// DELTA matches or beats ideal on several mixes (w3, w5, w10-w14).
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace delta;
  const bench::Cli cli(argc, argv);
  bench::print_header("Fig. 9 — 64-core multi-programmed mixes",
                      "Sec. IV-B, Fig. 9");

  const sim::MachineConfig cfg = sim::config64();
  TextTable table({"mix", "private", "ideal", "delta"});
  std::vector<double> sp_priv, sp_ideal, sp_delta;
  int delta_wins = 0;

  const std::vector<std::string> names = bench::all_mix_names();
  const std::vector<std::vector<sim::MixResult>> comps =
      bench::run_comparisons(cfg, names, cli.jobs());
  for (std::size_t m = 0; m < names.size(); ++m) {
    const std::vector<sim::MixResult>& c = comps[m];
    const double p = sim::speedup(c[bench::kPrivate], c[bench::kSnuca]);
    const double i = sim::speedup(c[bench::kIdeal], c[bench::kSnuca]);
    const double d = sim::speedup(c[bench::kDelta], c[bench::kSnuca]);
    sp_priv.push_back(p);
    sp_ideal.push_back(i);
    sp_delta.push_back(d);
    if (d >= i - 0.005) ++delta_wins;
    table.add_row({names[m], fmt(p, 3), fmt(i, 3), fmt(d, 3)});
  }

  std::printf("\nSpeedup over unpartitioned S-NUCA (1.000 = parity):\n%s\n",
              table.str().c_str());
  bench::print_speedup_summary("private", sp_priv);
  bench::print_speedup_summary("ideal-central", sp_ideal);
  bench::print_speedup_summary("delta", sp_delta);
  std::printf("mixes where DELTA is on par/better than ideal: %d (paper: 7)\n",
              delta_wins);
  std::printf("\npaper: delta +16%% (max +28%%) | ideal +17%% (max +35%%)\n");
  return 0;
}
