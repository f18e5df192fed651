#include "workload/splash.hpp"

#include <cassert>
#include <stdexcept>

namespace delta::workload {
namespace {

constexpr int kBlocksPerPage = static_cast<int>(kPageBytes / kLineBytes);  // 64

SplashProfile make(std::string name, int priv, int bound, int shared, int density,
                   int bb, double shared_af, double bound_af, double mlp,
                   double cpi, double apki, double tgt_page, double tgt_block,
                   bool block_estimated = false) {
  SplashProfile p;
  p.name = std::move(name);
  p.private_pages_per_thread = priv;
  p.boundary_pages_per_thread = bound;
  p.shared_pages = shared;
  p.private_block_density = density;
  p.boundary_shared_blocks = bb;
  p.shared_access_frac = shared_af;
  p.boundary_access_frac = bound_af;
  p.mlp = mlp;
  p.cpi_base = cpi;
  p.apki = apki;
  p.target_private_pages_pct = tgt_page;
  p.target_private_blocks_pct = tgt_block;
  p.block_target_estimated = block_estimated;
  return p;
}

std::vector<SplashProfile> build() {
  // Page-population parameters are solved so that the ground-truth sharing
  // measurement lands on Table V.  Where the paper's block row is
  // unreadable in our source text, the target is estimated from the page
  // row and flagged (`block_target_estimated`).
  std::vector<SplashProfile> v;
  //           name          priv bnd shared dens bb  sh_af  bd_af mlp  cpi  apki  pg%   blk%
  v.push_back(make("barnes",      2,  1,  342, 52,  8, 0.35, 0.05, 2.5, 0.6,  6.0,  8.2,  9.3));
  v.push_back(make("cholesky",   31,  2,  272, 64,  4, 0.30, 0.04, 3.0, 0.55, 8.0, 62.0, 66.0));
  v.push_back(make("fft",         8,  1,  244, 56,  6, 0.50, 0.02, 5.0, 0.5, 12.0, 33.0, 34.0));
  v.push_back(make("fmm",        30,  1,  161, 38,  6, 0.25, 0.03, 2.2, 0.6,  5.0, 73.0, 65.0));
  v.push_back(make("lu.cont",     1,  0, 1592, 38,  0, 0.97, 0.00, 3.5, 0.5, 10.0,  0.5,  0.3));
  v.push_back(make("lu.ncont",    1,  0, 1592, 38,  0, 0.97, 0.00, 3.5, 0.5, 11.0,  0.5,  0.3));
  v.push_back(make("ocean.cont", 19, 31,    0, 64,  1, 0.00, 0.25, 4.0, 0.5, 14.0, 38.0, 98.6));
  v.push_back(make("ocean.ncont",20, 30,    0, 64,  2, 0.00, 0.25, 4.0, 0.5, 14.0, 40.0, 97.0, true));
  v.push_back(make("water.sp",    5,  1,  704, 64,  6, 0.55, 0.05, 2.0, 0.55, 4.0, 10.0, 11.0, true));
  v.push_back(make("radiosity",   2,  0, 1035, 60,  0, 0.90, 0.00, 2.0, 0.6,  5.0,  3.0,  3.5, true));
  v.push_back(make("radix",       3,  0,  875, 64,  0, 0.85, 0.00, 6.0, 0.45,16.0,  5.2,  6.0, true));
  v.push_back(make("raytrace",    9,  1,  687, 60,  6, 0.60, 0.05, 1.8, 0.65, 4.0, 17.0, 18.0, true));
  v.push_back(make("volrend",     3,  1,  778, 64,  4, 0.85, 0.02, 1.6, 0.6,  3.0,  5.7,  7.0, true));
  v.push_back(make("water.nsq",  62,  0,    2, 64,  0, 0.02, 0.00, 2.0, 0.55, 4.0, 99.8, 99.8));
  return v;
}

}  // namespace

const std::vector<SplashProfile>& splash_profiles() {
  static const std::vector<SplashProfile> profiles = build();
  return profiles;
}

const SplashProfile& splash_profile(const std::string& name) {
  for (const auto& p : splash_profiles())
    if (p.name == name) return p;
  throw std::out_of_range("unknown SPLASH2 profile: " + name);
}

SplashGen::SplashGen(const SplashProfile& p, std::uint64_t seed) : p_(p), rng_(seed) {
  priv_base_ = 0;
  bound_base_ = p_.threads * p_.private_pages_per_thread;
  shared_base_ = bound_base_ + p_.threads * p_.boundary_pages_per_thread;
  pages_ = shared_base_ + p_.shared_pages;
}

BlockAddr SplashGen::pick_block(CoreId t) {
  const double r = rng_.uniform();
  int page;
  int block;
  if (r < p_.shared_access_frac && p_.shared_pages > 0) {
    page = shared_base_ + static_cast<int>(rng_.below(p_.shared_pages));
    block = static_cast<int>(rng_.below(kBlocksPerPage));
  } else if (r < p_.shared_access_frac + p_.boundary_access_frac &&
             p_.boundary_pages_per_thread > 0) {
    // 80%: the owner sweeps its own halo pages; 20%: the neighbour reads
    // the halo blocks of the previous thread's pages (grid boundary).
    const bool neighbour = rng_.chance(0.2);
    const CoreId owner =
        neighbour ? (t + p_.threads - 1) % p_.threads : t;
    page = bound_base_ + owner * p_.boundary_pages_per_thread +
           static_cast<int>(rng_.below(p_.boundary_pages_per_thread));
    block = neighbour
                ? static_cast<int>(rng_.below(p_.boundary_shared_blocks))
                : static_cast<int>(rng_.below(kBlocksPerPage));
  } else {
    page = priv_base_ + t * p_.private_pages_per_thread +
           static_cast<int>(rng_.below(p_.private_pages_per_thread));
    block = static_cast<int>(rng_.below(p_.private_block_density));
  }
  return block_of(page_addr(page)) + static_cast<BlockAddr>(block);
}

SplashAccess SplashGen::next() {
  SplashAccess a;
  a.thread = next_thread_;
  next_thread_ = (next_thread_ + 1) % p_.threads;
  a.block = pick_block(a.thread);
  a.is_write = rng_.chance(p_.write_frac);
  return a;
}

SharingMeasurement measure_sharing(const SplashProfile& p, std::uint64_t accesses,
                                   std::uint64_t seed) {
  SplashGen gen(p, seed);
  // The one thread that touched each page / block so far, or kNone / kMulti.
  // Running counts of touched and single-thread entries need no sweep.
  constexpr CoreId kNone = -1, kMulti = -2;
  struct Table {
    std::vector<CoreId> toucher;
    std::uint64_t touched = 0, single = 0;
    void mark(std::uint64_t i, CoreId t) {
      CoreId& c = toucher[i];
      if (c == kNone) {
        c = t;
        ++touched;
        ++single;
      } else if (c != t && c != kMulti) {
        c = kMulti;
        --single;
      }
    }
    double pct() const {
      return touched == 0 ? 0.0
                          : 100.0 * static_cast<double>(single) / static_cast<double>(touched);
    }
  };
  Table page{std::vector<CoreId>(static_cast<std::size_t>(gen.pages()), kNone)};
  Table block{std::vector<CoreId>(gen.blocks(), kNone)};

  for (std::uint64_t i = 0; i < accesses; ++i) {
    const SplashAccess a = gen.next();
    page.mark(page_of(addr_of_block(a.block)), a.thread);
    block.mark(a.block, a.thread);
  }

  SharingMeasurement m;
  m.pages_touched = page.touched;
  m.blocks_touched = block.touched;
  m.private_pages_pct = page.pct();
  m.private_blocks_pct = block.pct();
  return m;
}

}  // namespace delta::workload
