// Sec. IV-E2: message overheads.  Counts DELTA's control-plane messages
// (challenges, responses, intra-bank feedback, bulk-invalidation commands)
// against demand traffic during a real 16-core run.
//
// Paper result: worst case 352 control messages per 1 ms interval vs ~320 K
// demand messages — ~0.1% overhead.
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace delta;
  const bench::Cli cli(argc, argv);
  bench::print_header("Message overheads — DELTA control traffic vs demand",
                      "Sec. IV-E2");

  const sim::MachineConfig cfg = sim::config16();
  const std::vector<std::string> names = {"w2", "w6", "w12"};
  std::vector<sim::SweepJob> sweep;
  for (const std::string& name : names)
    sweep.push_back(
        {cfg, sim::mix_for_config(cfg, name), sim::SchemeKind::kDelta, {}});
  const std::vector<sim::MixResult> results = sim::run_sweep(sweep, cli.jobs());

  TextTable table({"mix", "ctrl/1ms", "demand/1ms", "overhead%"});
  for (std::size_t m = 0; m < names.size(); ++m) {
    const sim::MixResult& r = results[m];
    const double intervals =
        static_cast<double>(r.measured_epochs) /
        static_cast<double>(cfg.delta.inter_interval_epochs);
    const double ctrl =
        static_cast<double>(r.traffic.control_messages() +
                            r.traffic.invalidation_messages()) /
        intervals;
    const double demand = static_cast<double>(r.traffic.demand_messages()) / intervals;
    table.add_row(
        {names[m], fmt(ctrl, 1), fmt(demand, 0), fmt(100.0 * ctrl / demand, 4)});
  }
  std::printf("\nPer 1 ms reconfiguration interval:\n%s\n", table.str().c_str());

  // The paper's analytic worst case for a 16-core CMP.
  const int n = 16;
  const int centralized = 2 * n;
  const int delta_worst = 2 * n /*intra*/ + n * 10 * 2 /*inter*/;
  std::printf("analytic worst case (paper): centralized %d msgs, DELTA %d msgs, "
              "~320K L2-miss msgs per interval -> ~0.1%%\n",
              centralized, delta_worst);
  return 0;
}
