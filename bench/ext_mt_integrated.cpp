// Extension: Fig. 12 revisited with the *integrated* multithreaded
// simulation (Sec. II-E executed directly: page classifier + S-NUCA
// fallback + page-flip invalidations + same-process challenge rejection)
// instead of the paper's piecewise reconstruction.  The paper leaves this
// detailed modelling to future work (Sec. IV-C); this harness compares the
// two methods side by side.
#include <cstdio>

#include "bench_util.hpp"
#include "sim/mt_sim.hpp"
#include "sim/splash_estimator.hpp"
#include "workload/splash.hpp"

int main(int argc, char** argv) {
  const delta::bench::Cli cli(argc, argv);
  using namespace delta;
  bench::print_header("Extension — integrated multithreaded DELTA vs the paper's estimate",
                      "Sec. II-E / IV-C future-work extension");

  const sim::MachineConfig cfg = sim::config16();
  sim::MtConfig mtc;
  sim::SplashConfig scfg;
  scfg.accesses_per_thread = mtc.accesses_per_thread;

  TextTable table({"app", "delta/snuca (integrated)", "delta/snuca (estimate)",
                   "reclassified pages", "flip-invalidated lines"});
  std::vector<double> integrated, estimated;
  for (const auto& p : workload::splash_profiles()) {
    const sim::MtResult d = sim::run_multithreaded(cfg, p, sim::SchemeKind::kDelta, mtc);
    const sim::MtResult s = sim::run_multithreaded(cfg, p, sim::SchemeKind::kSnuca, mtc);
    const double direct = s.roi_cycles / d.roi_cycles;
    const sim::SplashEstimate e = sim::estimate_splash(p, cfg, scfg);
    integrated.push_back(direct);
    estimated.push_back(e.delta_speedup);
    table.add_row({p.name, fmt(direct, 3), fmt(e.delta_speedup, 3),
                   std::to_string(d.reclassifications),
                   std::to_string(d.page_invalidation_lines)});
    std::fflush(stdout);
  }
  std::printf("\n%s\n", table.str().c_str());
  std::printf("suite geomean speedup over S-NUCA: integrated %.3f, estimate %.3f\n",
              geomean(integrated), geomean(estimated));
  std::printf("(agreement between the two validates the paper's estimation method;\n"
              "the integrated run additionally charges reclassification costs)\n");
  return 0;
}
