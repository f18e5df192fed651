// Synthetic SPLASH2 stand-ins for the multithreaded study (Sec. IV-C).
//
// The paper instruments SPLASH2 with a pintool to measure inter-thread
// sharing at page and block granularity (Table V), then *estimates* DELTA's
// performance by a piecewise reconstruction: accesses to private pages at
// the private-LLC baseline's performance, accesses to shared pages at the
// S-NUCA baseline's.  We reproduce that pipeline with page-structured
// synthetic generators whose sharing ratios are calibrated to Table V.
//
// Sharing structure per application:
//  * pure-private pages  — touched by exactly one thread, with a tunable
//    touched-block density (sparse private pages push block-private% below
//    page-private%, the fmm pattern);
//  * boundary pages      — owned by one thread but with a few blocks also
//    touched by a neighbour (grid halos): the page classifies shared while
//    most of its *blocks* stay single-thread (the ocean pattern: 38% private
//    pages but 98.6% private blocks);
//  * fully shared pages  — touched by many threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace delta::workload {

struct SplashProfile {
  std::string name;
  int threads = 16;
  // Page population (4 KiB pages, 64 blocks each).
  int private_pages_per_thread = 48;   ///< Pure-private pages per thread.
  int boundary_pages_per_thread = 0;   ///< Halo pages per thread.
  int shared_pages = 64;               ///< Fully shared pages.
  int private_block_density = 64;      ///< Touched blocks per private page (1..64).
  int boundary_shared_blocks = 2;      ///< Blocks per boundary page a neighbour touches.
  // Access behaviour.
  double shared_access_frac = 0.3;     ///< Fraction of accesses to shared pages.
  double boundary_access_frac = 0.0;   ///< Fraction to boundary pages (rest: private).
  double write_frac = 0.25;            ///< Fraction of accesses that are writes.
  double mlp = 3.0;
  double cpi_base = 0.6;
  double apki = 8.0;
  // Table V calibration targets (percent private).
  double target_private_pages_pct = 0.0;
  double target_private_blocks_pct = 0.0;
  bool block_target_estimated = false;  ///< True where Table V's block row is unreadable.
};

/// The 14 SPLASH2 applications of Table V.
const std::vector<SplashProfile>& splash_profiles();
const SplashProfile& splash_profile(const std::string& name);

struct SplashAccess {
  CoreId thread = 0;
  BlockAddr block = 0;
  bool is_write = false;
};

/// Deterministic page-structured access generator for one application.
class SplashGen {
 public:
  SplashGen(const SplashProfile& p, std::uint64_t seed);

  /// Next access, round-robin across threads (BSP-style interleaving).
  SplashAccess next();

  const SplashProfile& profile() const { return p_; }
  Addr page_addr(int page) const { return static_cast<Addr>(page) * kPageBytes; }
  /// Every access falls in pages [0, pages()) and blocks [0, blocks()).
  int pages() const { return pages_; }
  BlockAddr blocks() const { return block_of(page_addr(pages_)); }

 private:
  BlockAddr pick_block(CoreId t);

  const SplashProfile& p_;
  Rng rng_;
  CoreId next_thread_ = 0;
  // Page layout (page indices into a flat address space): all private
  // pages, thread by thread, then all boundary pages, then the shared pages.
  int priv_base_ = 0, bound_base_ = 0, shared_base_ = 0, pages_ = 0;
};

/// Ground-truth sharing measurement (the paper's pintool equivalent):
/// streams `accesses` through the generator and reports the percentage of
/// pages/blocks touched by exactly one thread.
struct SharingMeasurement {
  double private_pages_pct = 0.0;
  double private_blocks_pct = 0.0;
  std::uint64_t pages_touched = 0;
  std::uint64_t blocks_touched = 0;
};
SharingMeasurement measure_sharing(const SplashProfile& p, std::uint64_t accesses,
                                   std::uint64_t seed = 7);

}  // namespace delta::workload
