// Figure 12: SPLASH2 multithreaded applications on the 16-core CMP — DELTA
// (piecewise estimate) and private LLC, normalized to S-NUCA.
//
// Paper result: over the suite, DELTA averages within 1% of both baselines;
// per-application results track the private/shared ratio — water.nsq
// (~all-private) gains ~6% over S-NUCA, lu.ncont (~all-shared) matches
// S-NUCA while the private configuration loses ~10%.
#include <cstdio>

#include "bench_util.hpp"
#include "sim/splash_estimator.hpp"
#include "workload/splash.hpp"

int main(int argc, char** argv) {
  using namespace delta;
  const bench::Cli cli(argc, argv);
  bench::print_header("Fig. 12 — SPLASH2 on 16 cores (piecewise estimate)",
                      "Sec. IV-C, Fig. 12");

  const sim::MachineConfig cfg = sim::config16();
  sim::SplashConfig scfg;

  TextTable table({"app", "priv-pages%", "delta/snuca", "private/snuca"});
  std::vector<double> delta_sp, priv_sp;
  const auto& profiles = workload::splash_profiles();
  const std::vector<sim::SplashEstimate> estimates =
      bench::parallel_map(profiles.size(), cli.jobs(), [&](std::size_t i) {
        return sim::estimate_splash(profiles[i], cfg, scfg);
      });
  for (const sim::SplashEstimate& e : estimates) {
    delta_sp.push_back(e.delta_speedup);
    priv_sp.push_back(e.private_speedup);
    table.add_row({e.app, fmt(e.private_pages_pct, 1), fmt(e.delta_speedup, 3),
                   fmt(e.private_speedup, 3)});
  }
  std::printf("\nSpeedup over S-NUCA:\n%s\n", table.str().c_str());
  std::printf("suite geomean: delta %.3f, private %.3f "
              "(paper: delta within ~1%% of both baselines on average)\n",
              geomean(delta_sp), geomean(priv_sp));
  return 0;
}
