// Figure 13: impact of reconfiguration frequency — the ideal centralized
// allocator invoked every 1 ms vs. every 100 ms on five 16-core mixes.
//
// Paper result: frequent reconfiguration does not help every workload, but
// clearly improves several (better adaptation to phase changes) — the case
// for DELTA's negligible-cost frequent reconfigurations.
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace delta;
  const bench::Cli cli(argc, argv);
  bench::print_header("Fig. 13 — reconfiguration frequency (ideal centralized)",
                      "Sec. IV-D, Fig. 13");

  sim::MachineConfig cfg = sim::config16();
  // Long enough that several application phases elapse (gcc/mcf/omnetpp
  // switch every 150-200 epochs = 15-20 ms).
  cfg.measure_epochs = 600;

  sim::SchemeOptions fast;
  fast.central_interval_epochs = 10;  // 1 ms.
  sim::SchemeOptions slow;
  slow.central_interval_epochs = 1000;  // 100 ms.

  const std::vector<std::string> names = {"w1", "w2", "w3", "w4", "w5"};
  std::vector<sim::SweepJob> sweep;
  for (const std::string& name : names) {
    const workload::Mix mix = sim::mix_for_config(cfg, name);
    sweep.push_back({cfg, mix, sim::SchemeKind::kSnuca, {}});
    sweep.push_back({cfg, mix, sim::SchemeKind::kIdealCentralized, fast});
    sweep.push_back({cfg, mix, sim::SchemeKind::kIdealCentralized, slow});
  }
  const std::vector<sim::MixResult> results = sim::run_sweep(sweep, cli.jobs());

  TextTable table({"mix", "1ms", "100ms", "1ms/100ms"});
  std::vector<double> ratios;
  for (std::size_t m = 0; m < names.size(); ++m) {
    const sim::MixResult& snuca = results[m * 3 + 0];
    const double f = sim::speedup(results[m * 3 + 1], snuca);
    const double s = sim::speedup(results[m * 3 + 2], snuca);
    ratios.push_back(f / s);
    table.add_row({names[m], fmt(f, 3), fmt(s, 3), fmt(f / s, 3)});
  }
  std::printf("\nSpeedup over S-NUCA at each allocation frequency:\n%s\n",
              table.str().c_str());
  std::printf("geomean 1ms/100ms = %.3f (paper: frequent allocation helps "
              "several workloads, hurts none badly)\n",
              geomean(ratios));
  return 0;
}
