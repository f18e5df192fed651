// Ablation study of DELTA's tuning knobs (Table II bottom row) on a
// representative 16-core mix.  Not a paper figure — DESIGN.md calls these
// out as the design choices worth isolating:
//   * gainThreshold   — how eager tiles are to challenge;
//   * interDeltaWays  — granularity of inter-bank capacity grants;
//   * intraDeltaWays  — granularity of intra-bank fine-tuning;
//   * i_inter         — challenge frequency;
//   * UMON decay      — monitoring memory horizon (via coarse_ways too).
#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace delta;

double delta_speedup(sim::MachineConfig cfg, const workload::Mix& mix) {
  const sim::MixResult snuca = sim::run_mix(cfg, mix, sim::SchemeKind::kSnuca);
  const sim::MixResult dlt = sim::run_mix(cfg, mix, sim::SchemeKind::kDelta);
  return sim::speedup(dlt, snuca);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace delta;
  const bench::Cli cli(argc, argv);
  bench::print_header("Ablation — DELTA parameter sensitivity (mix w6, 16 cores)",
                      "DESIGN.md ablation index (not a paper figure)");

  sim::MachineConfig base = sim::config16();
  base.warmup_epochs = 40;
  base.measure_epochs = 150;
  const workload::Mix mix = sim::mix_for_config(base, "w6");

  // Flatten every (knob, value) point into one job list so the sweep can
  // use all hardware threads across sections, then print per section.
  struct Point {
    std::string section;
    std::string label;
    sim::MachineConfig cfg;
  };
  std::vector<Point> points;
  for (double thr : {0.0, 0.25, 0.5, 1.0, 2.0, 8.0}) {
    sim::MachineConfig cfg = base;
    cfg.delta.gain_threshold = thr;
    points.push_back({"gainThreshold", fmt(thr, 2), cfg});
  }
  for (int w : {1, 2, 4, 8}) {
    sim::MachineConfig cfg = base;
    cfg.delta.inter_delta_ways = w;
    points.push_back({"interDeltaWays", std::to_string(w), cfg});
  }
  for (int w : {1, 2, 4}) {
    sim::MachineConfig cfg = base;
    cfg.delta.intra_delta_ways = w;
    points.push_back({"intraDeltaWays", std::to_string(w), cfg});
  }
  for (int epochs : {5, 10, 20, 50, 100}) {
    sim::MachineConfig cfg = base;
    cfg.delta.inter_interval_epochs = epochs;
    points.push_back({"i_inter (ms)", fmt(epochs * 0.1, 1), cfg});
  }
  for (int cw : {1, 2, 4, 8, 16}) {
    sim::MachineConfig cfg = base;
    cfg.umon.coarse_ways = cw;
    points.push_back({"UMON coarse_ways", std::to_string(cw), cfg});
  }

  const std::vector<double> speeds =
      bench::parallel_map(points.size(), cli.jobs(), [&](std::size_t i) {
        return delta_speedup(points[i].cfg, mix);
      });

  std::size_t i = 0;
  while (i < points.size()) {
    const std::string& section = points[i].section;
    TextTable t({section, section == "gainThreshold" ? "speedup vs snuca" : "speedup"});
    for (; i < points.size() && points[i].section == section; ++i)
      t.add_row({points[i].label, fmt(speeds[i], 3)});
    std::printf("\n%s", t.str().c_str());
  }
  std::printf("\n(paper Sec. II-B3: the coarse 4-way counters trade counter storage\n"
              "for window resolution; the ablation shows the performance cost.)\n");
  return 0;
}
