// 64-core scalability demo: one Table IV mix replicated 4x on the 8x8-mesh
// machine, all four schemes, with NoC-distance and allocation summaries —
// the setting where locality-awareness matters most (Sec. IV-B).
//
//   $ ./scheme_shootout_64 [mix]        # default w6
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace delta;
  const std::string mix_name = argc > 1 ? argv[1] : "w6";

  sim::MachineConfig cfg = sim::config64();
  cfg.warmup_epochs = 30;
  cfg.measure_epochs = 100;

  const workload::Mix mix = sim::mix_for_config(cfg, mix_name);
  std::printf("64-core shootout on %s (16-core mix replicated 4x)\n\n", mix_name.c_str());

  // kPaperSchemeKinds order: rs[0] is the S-NUCA baseline.
  const std::vector<sim::MixResult> rs =
      sim::run_schemes(cfg, {mix}, sim::kPaperSchemeKinds).front();

  auto mean_hops = [](const sim::MixResult& r) {
    double h = 0.0;
    int n = 0;
    for (const auto& a : r.apps)
      if (a.llc_accesses > 0) {
        h += a.avg_hops;
        ++n;
      }
    return n ? h / n : 0.0;
  };

  TextTable table({"scheme", "geomean ipc", "speedup", "mean hops", "mean ways"});
  for (const sim::MixResult& r : rs) {
    double ways = 0.0;
    for (const auto& a : r.apps) ways += a.avg_ways / static_cast<double>(r.apps.size());
    table.add_row({r.scheme, fmt(r.geomean_ipc, 3), fmt(sim::speedup(r, rs[0]), 3),
                   fmt(mean_hops(r), 2), fmt(ways, 1)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("S-NUCA pays the full mesh diameter on every access; DELTA keeps\n"
              "allocations near their tiles while still right-sizing capacity.\n");
  return 0;
}
