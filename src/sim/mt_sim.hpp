// Integrated multithreaded simulation (paper Sec. II-E, executed directly).
//
// The paper *estimates* DELTA's multithreaded performance by piecewise
// reconstruction (see splash_estimator.hpp).  This module goes further and
// actually runs the Sec. II-E design in the simulator:
//   * the R-NUCA page classifier tags pages private/shared lazily;
//   * lines of shared pages use the fixed S-NUCA mapping (single copy,
//     coherence-safe); lines of private pages follow the owner's CBT;
//   * a page's lines are invalidated when it flips private -> shared;
//   * all threads share one process id, so inter-bank challenges between
//     them are rejected (threads of one application do not compete).
//
// This is the repository's "future work" extension: the paper leaves
// detailed multithreaded modelling of DELTA to future research (Sec. IV-C).
#pragma once

#include <cstdint>

#include "sim/config.hpp"
#include "sim/scheme.hpp"
#include "workload/splash.hpp"

namespace delta::sim {

struct MtResult {
  std::string app;
  std::string scheme;
  double roi_cycles = 0.0;        ///< Longest thread in the parallel region.
  double mean_ipc = 0.0;
  double miss_rate = 0.0;
  double mean_hops = 0.0;
  std::uint64_t private_pages = 0;
  std::uint64_t shared_pages = 0;
  std::uint64_t reclassifications = 0;
  std::uint64_t page_invalidation_lines = 0;
};

struct MtConfig {
  std::uint64_t accesses_per_thread = 60'000;
  std::uint64_t seed = 23;
};

/// Runs one SPLASH2 profile on the 16-core machine under `kind`
/// (kDelta uses the full Sec. II-E machinery; kSnuca / kPrivate are the
/// baselines of Fig. 12).  The run executes on the calling thread: the
/// logical threads are interleaved in one deterministic global order, and
/// `cfg.intra_jobs` does not apply (results never depended on it).
MtResult run_multithreaded(const MachineConfig& cfg, const workload::SplashProfile& p,
                           SchemeKind kind, MtConfig mtc = {});

}  // namespace delta::sim
