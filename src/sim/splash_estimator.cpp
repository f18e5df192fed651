#include "sim/splash_estimator.hpp"

#include <algorithm>
#include <vector>

#include "mem/address.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "noc/mesh.hpp"

namespace delta::sim {
namespace {

struct ThreadCycles {
  double lat_sum = 0.0;
  std::uint64_t accesses = 0;
};

double roi_cycles(const std::vector<ThreadCycles>& threads,
                  const workload::SplashProfile& p) {
  // Longest-running thread in the parallel region (paper Sec. IV-C):
  // instructions = accesses / (apki/1000); stalls overlap by MLP.
  double worst = 0.0;
  for (const auto& t : threads) {
    const double instr = static_cast<double>(t.accesses) / (p.apki / 1000.0);
    const double cycles = instr * p.cpi_base + t.lat_sum / p.mlp;
    worst = std::max(worst, cycles);
  }
  return worst;
}

/// S-NUCA baseline: single shared copy, line-interleaved across all banks.
double simulate_snuca(const workload::SplashProfile& p, const MachineConfig& cfg,
                      const SplashConfig& scfg) {
  const int n = cfg.cores;
  noc::Mesh mesh(cfg.mesh_width, cfg.mesh_height);
  std::vector<mem::SetAssocCache> banks;
  for (int b = 0; b < n; ++b)
    banks.emplace_back(static_cast<std::uint32_t>(cfg.sets_per_bank()), cfg.ways_per_bank);
  const mem::WayMask all = mem::full_mask(cfg.ways_per_bank);

  workload::SplashGen gen(p, scfg.seed);
  std::vector<ThreadCycles> threads(static_cast<std::size_t>(p.threads));
  const std::uint64_t total = scfg.accesses_per_thread * static_cast<std::uint64_t>(p.threads);
  for (std::uint64_t i = 0; i < total; ++i) {
    const workload::SplashAccess a = gen.next();
    const BankId bank = mem::snuca_bank(a.block, n);
    const std::uint32_t set = mem::snuca_set_index(a.block, n, cfg.sets_log2);
    double lat = static_cast<double>(mesh.round_trip(a.thread, bank) +
                                     cfg.llc_tag_latency + cfg.llc_data_latency);
    const auto res = banks[static_cast<std::size_t>(bank)].access(set, a.block, a.thread, all);
    if (!res.hit) lat += 340.0;  // DRAM + MCU round trip (flat model).
    auto& t = threads[static_cast<std::size_t>(a.thread)];
    t.lat_sum += lat;
    ++t.accesses;
  }
  return roi_cycles(threads, p);
}

/// Private baseline: every thread caches into its own 512 KB bank; shared
/// lines replicate and are kept coherent by the MESIF directory.
double simulate_private(const workload::SplashProfile& p, const MachineConfig& cfg,
                        const SplashConfig& scfg) {
  const int n = cfg.cores;
  noc::Mesh mesh(cfg.mesh_width, cfg.mesh_height);
  std::vector<mem::SetAssocCache> banks;
  for (int b = 0; b < n; ++b)
    banks.emplace_back(static_cast<std::uint32_t>(cfg.sets_per_bank()), cfg.ways_per_bank);
  const mem::WayMask all = mem::full_mask(cfg.ways_per_bank);
  workload::SplashGen gen(p, scfg.seed);
  mem::MesifDirectory dir(n, gen.blocks());

  std::vector<ThreadCycles> threads(static_cast<std::size_t>(p.threads));
  const std::uint64_t total = scfg.accesses_per_thread * static_cast<std::uint64_t>(p.threads);
  for (std::uint64_t i = 0; i < total; ++i) {
    const workload::SplashAccess a = gen.next();
    const CoreId c = a.thread;
    const std::uint32_t set = mem::set_index(a.block, cfg.sets_log2);
    auto& local = banks[static_cast<std::size_t>(c)];
    double lat = static_cast<double>(cfg.llc_tag_latency + cfg.llc_data_latency);

    const bool local_hit = local.contains(set, a.block) && dir.is_sharer(c, a.block);
    if (!local_hit) {
      // Coherence transaction: data may be forwarded from a peer bank or
      // fetched from memory.
      const mem::CoherenceAction act =
          a.is_write ? dir.on_write(c, a.block) : dir.on_read(c, a.block);
      if (act.forwarded && act.forwarder != kInvalidCore) {
        lat += static_cast<double>(mesh.round_trip(c, act.forwarder));
      } else {
        lat += 340.0;
      }
      const auto res = local.access(set, a.block, c, all);
      if (res.evicted) dir.on_evict(c, res.victim_block);
      (void)res;
    } else {
      local.touch(set, a.block);
      if (a.is_write) {
        const mem::CoherenceAction act = dir.on_write(c, a.block);
        // Write hits to shared data still invalidate remote copies; the
        // invalidation round trip is off the critical path, but the copies
        // disappear from the remote banks.
        if (act.invalidations > 0) {
          for (int peer = 0; peer < n; ++peer) {
            if (peer == c) continue;
            banks[static_cast<std::size_t>(peer)].invalidate(set, a.block);
          }
        }
      }
    }
    auto& t = threads[static_cast<std::size_t>(c)];
    t.lat_sum += lat;
    ++t.accesses;
  }
  return roi_cycles(threads, p);
}

}  // namespace

SplashEstimate estimate_splash(const workload::SplashProfile& profile,
                               const MachineConfig& cfg, SplashConfig scfg) {
  SplashEstimate e;
  e.app = profile.name;

  // Step 1: the sharing measurement (the pintool's output, Table V): the
  // share of touched pages, and of blocks, that one thread alone touches.
  const workload::SharingMeasurement sharing = workload::measure_sharing(
      profile, scfg.accesses_per_thread * static_cast<std::uint64_t>(profile.threads),
      scfg.seed);
  e.private_pages_pct = sharing.private_pages_pct;
  e.private_blocks_pct = sharing.private_blocks_pct;

  // Step 2: baselines + piecewise reconstruction.
  e.snuca_cycles = simulate_snuca(profile, cfg, scfg);
  e.private_cycles = simulate_private(profile, cfg, scfg);
  const double f = e.private_pages_pct / 100.0;
  e.delta_cycles = f * e.private_cycles + (1.0 - f) * e.snuca_cycles;
  e.delta_speedup = e.snuca_cycles / e.delta_cycles;
  e.private_speedup = e.snuca_cycles / e.private_cycles;
  return e;
}

}  // namespace delta::sim
