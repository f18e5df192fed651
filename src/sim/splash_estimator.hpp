// Multithreaded performance estimation (paper Sec. IV-C, Fig. 12, Table V).
//
// The paper's two-step method, reproduced:
//  1. measure the private/shared page ratio of each SPLASH2 application
//     (pintool in the paper; workload::measure_sharing over our synthetic
//     generators here);
//  2. piecewise-reconstruct DELTA's performance: accesses to private pages
//     perform like the private-LLC baseline, accesses to shared pages like
//     the S-NUCA baseline (LLC accesses assumed uniform across pages).
//
// The two baselines are themselves simulated: S-NUCA keeps one copy of each
// line in an interleaved 8 MB LLC; the private configuration replicates
// shared lines into each accessor's 512 KB bank and stays coherent through
// the MESIF directory (write-invalidations + cache-to-cache forwards), which
// is what makes heavy-sharing applications (lu.ncont) lose ~10% under
// private LLCs while all-private applications (water.nsq) gain.
#pragma once

#include <cstdint>

#include "sim/config.hpp"
#include "workload/splash.hpp"

namespace delta::sim {

struct SplashEstimate {
  std::string app;
  // Measured sharing (percent private).
  double private_pages_pct = 0.0;
  double private_blocks_pct = 0.0;
  // Region-of-interest cycles (longest thread) per configuration.
  double snuca_cycles = 0.0;
  double private_cycles = 0.0;
  double delta_cycles = 0.0;  ///< Piecewise estimate.
  // Speedups over S-NUCA (the Fig. 12 series).
  double delta_speedup = 0.0;
  double private_speedup = 0.0;
};

struct SplashConfig {
  std::uint64_t accesses_per_thread = 60'000;
  std::uint64_t seed = 17;
};

/// Runs the full pipeline for one application on the 16-core machine.
SplashEstimate estimate_splash(const workload::SplashProfile& profile,
                               const MachineConfig& cfg, SplashConfig scfg = {});

}  // namespace delta::sim
