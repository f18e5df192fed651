// Compare all four cache organisations on a user-supplied 16-app mix.
//
//   $ ./multiprogram_compare                 # defaults to Table IV's w2
//   $ ./multiprogram_compare mc xa so po sj na ze hm ga gr li bw mi de om pe
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/runner.hpp"
#include "workload/spec.hpp"

int main(int argc, char** argv) {
  using namespace delta;
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 40;
  cfg.measure_epochs = 200;

  workload::Mix mix;
  if (argc == 17) {
    mix.name = "custom";
    for (int i = 1; i < argc; ++i) {
      if (!workload::has_spec_profile(argv[i])) {
        std::fprintf(stderr, "unknown app '%s'\n", argv[i]);
        return 1;
      }
      mix.apps.emplace_back(argv[i]);
    }
  } else if (argc == 1) {
    mix = sim::mix_for_config(cfg, "w2");
  } else {
    std::fprintf(stderr, "usage: %s [app1 .. app16]\n", argv[0]);
    return 1;
  }

  std::printf("mix %s: ", mix.name.c_str());
  for (const auto& a : mix.apps) std::printf("%s ", a.c_str());
  std::printf("\n\nrunning snuca / private / ideal-central / delta ...\n");

  // kPaperSchemeKinds order: rs[0] is S-NUCA, rs[1] private.
  const std::vector<sim::MixResult> rs =
      sim::run_schemes(cfg, {mix}, sim::kPaperSchemeKinds).front();

  TextTable table({"scheme", "geomean ipc", "speedup vs snuca", "ANTT", "STP",
                   "invalidated lines"});
  for (const sim::MixResult& r : rs)
    table.add_row({r.scheme, fmt(r.geomean_ipc, 3), fmt(sim::speedup(r, rs[0]), 3),
                   fmt(sim::antt(r, rs[1]), 3), fmt(sim::stp(r, rs[1]), 2),
                   std::to_string(r.invalidated_lines)});
  std::printf("\n%s\n", table.str().c_str());
  return 0;
}
