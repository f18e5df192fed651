// Figure 5: performance of the 15 Table IV workload mixes on the 16-core
// CMP, normalized to unpartitioned S-NUCA.
//
// Paper result: DELTA +9% geomean (max +16%); ideal centralized +12%
// (max +22%); private +3%.  Expected reproduction: same ordering
// (S-NUCA < private < DELTA < ideal) with comparable magnitudes.
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace delta;
  const bench::Cli cli(argc, argv);
  bench::print_header("Fig. 5 — 16-core multi-programmed mixes",
                      "Sec. IV-A, Fig. 5");

  const sim::MachineConfig cfg = sim::config16();
  TextTable table({"mix", "private", "ideal", "delta"});
  std::vector<double> sp_priv, sp_ideal, sp_delta;

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
    table.add_row({names[m], fmt(p, 3), fmt(i, 3), fmt(d, 3)});
  }

  std::printf("\nSpeedup over unpartitioned S-NUCA (1.000 = parity):\n%s\n",
              table.str().c_str());
  bench::print_speedup_summary("private", sp_priv);
  bench::print_speedup_summary("ideal-central", sp_ideal);
  bench::print_speedup_summary("delta", sp_delta);
  std::printf("\npaper: private +3%% | ideal +12%% (max +22%%) | delta +9%% (max +16%%)\n");
  return 0;
}
