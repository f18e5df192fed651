#include "sim/mt_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/controller.hpp"
#include "core/page_classify.hpp"
#include "mem/address.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "noc/mcu.hpp"
#include "noc/mesh.hpp"

namespace delta::sim {
namespace {

struct ThreadAcct {
  double lat_sum = 0.0;
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  double hop_sum = 0.0;
};

/// Chip state shared by every logical SPLASH thread: banks, the page
/// classifier, the MESIF directory, the DELTA controller and the per-thread
/// accounting.  The Sec. II-E loop interleaves the logical threads
/// deterministically on one host thread, so nothing here is locked.
class MtChip {
 public:
  MtChip(const MachineConfig& cfg, const workload::SplashProfile& p, SchemeKind kind)
      : cfg_(cfg),
        p_(p),
        kind_(kind),
        mesh_(cfg.mesh_width, cfg.mesh_height),
        memsys_(cfg.num_mcus, cfg.mesh_width, cfg.mesh_height, cfg.mcu),
        directory_(cfg.cores),
        ctrl_(mesh_, cfg.delta, cfg.ways_per_bank, cfg.sets_log2),
        all_(mem::full_mask(cfg.ways_per_bank)),
        acct_(static_cast<std::size_t>(p.threads)) {
    for (int b = 0; b < cfg_.cores; ++b)
      banks_.emplace_back(static_cast<std::uint32_t>(cfg_.sets_per_bank()),
                          cfg_.ways_per_bank);
    for (int c = 0; c < cfg_.cores; ++c) umons_.emplace_back(cfg_.umon);
    inputs_.resize(static_cast<std::size_t>(cfg_.cores));
    for (int c = 0; c < cfg_.cores; ++c) {
      inputs_[static_cast<std::size_t>(c)] = core::TileInput{
          &umons_[static_cast<std::size_t>(c)], p_.mlp, c < p_.threads,
          /*process_id=*/1};
    }
  }

  /// Runs the distributed policy step at an epoch boundary (kDelta only).
  void begin_epoch(std::uint64_t epoch) {
    if (kind_ == SchemeKind::kDelta) ctrl_.tick(epoch, inputs_);
  }

  void end_epoch() {
    memsys_.end_epoch(cfg_.epoch_cycles);
  }

  /// Mean LLC latency across everything issued so far (`fallback` when
  /// nothing has been issued yet); feeds the interval model's CPI refresh.
  double avg_latency_or(double fallback) const {
    double lat_sum = 0.0;
    std::uint64_t n = 0;
    for (const ThreadAcct& t : acct_) {
      lat_sum += t.lat_sum;
      n += t.accesses;
    }
    return n ? lat_sum / static_cast<double>(n) : fallback;
  }

  /// Final aggregation: region-of-interest metric is the longest thread
  /// (paper Sec. IV-C).
  void summarize(MtResult& res) const {
    double worst = 0.0;
    double total_instr = 0.0, total_cycles = 0.0;
    std::uint64_t hits = 0, accesses = 0;
    double hop_sum = 0.0;
    for (const ThreadAcct& t : acct_) {
      const double instr = static_cast<double>(t.accesses) / (p_.apki / 1000.0);
      const double cycles = instr * p_.cpi_base + t.lat_sum / p_.mlp;
      worst = std::max(worst, cycles);
      total_instr += instr;
      total_cycles += cycles;
      hits += t.hits;
      accesses += t.accesses;
      hop_sum += t.hop_sum;
    }
    res.roi_cycles = worst;
    res.mean_ipc = total_cycles > 0
                       ? total_instr / (total_cycles / p_.threads) / p_.threads
                       : 0.0;
    res.miss_rate =
        accesses ? 1.0 - static_cast<double>(hits) / static_cast<double>(accesses) : 0.0;
    res.mean_hops = accesses ? hop_sum / static_cast<double>(accesses) : 0.0;
    res.private_pages = classifier_.private_pages();
    res.shared_pages = classifier_.shared_pages();
    res.reclassifications = classifier_.reclassifications();
    res.page_invalidation_lines = page_invalidation_lines_;
  }

  /// Issues one logical-thread access through the shared chip.
  void access(const workload::SplashAccess& a) {
    const CoreId c = a.thread;
    umons_[static_cast<std::size_t>(c)].access(a.block);

    const core::PageEvent ev = classifier_.on_access(c, addr_of_block(a.block));
    if (kind_ == SchemeKind::kDelta && ev.reclassified) page_flip_invalidate(a.block);

    BankId bank;
    std::uint32_t set;
    mem::WayMask mask = all_;
    switch (kind_) {
      case SchemeKind::kSnuca:
        bank = mem::snuca_bank(a.block, cfg_.cores);
        set = mem::snuca_set_index(a.block, cfg_.cores, cfg_.sets_log2);
        break;
      case SchemeKind::kPrivate:
        bank = c;
        set = mem::set_index(a.block, cfg_.sets_log2);
        break;
      default:  // kDelta (and the centralized scheme behaves the same here).
        if (ev.cls == core::PageClass::kShared) {
          bank = mem::snuca_bank(a.block, cfg_.cores);
          set = mem::snuca_set_index(a.block, cfg_.cores, cfg_.sets_log2);
        } else {
          bank = ctrl_.bank_for(c, a.block);
          set = mem::set_index(a.block, cfg_.sets_log2);
          mask = ctrl_.insert_mask(c, bank);
          if (mask == 0) mask = all_;  // Defensive: never bypass here.
        }
        break;
    }

    const int hops = mesh_.hops(c, bank);
    double lat = static_cast<double>(mesh_.round_trip(c, bank) + cfg_.llc_tag_latency +
                                     cfg_.llc_data_latency);

    bool hit;
    if (kind_ == SchemeKind::kPrivate && ev.cls == core::PageClass::kShared) {
      // Private LLC with shared data: replicate locally, keep coherent via
      // the MESIF directory (write-invalidations remove remote copies).
      auto& local = banks_[static_cast<std::size_t>(c)];
      hit = local.contains(set, a.block) && directory_.is_sharer(c, a.block);
      if (!hit) {
        const mem::CoherenceAction act =
            a.is_write ? directory_.on_write(c, a.block) : directory_.on_read(c, a.block);
        if (act.forwarded && act.forwarder != kInvalidCore) {
          lat += static_cast<double>(mesh_.round_trip(c, act.forwarder));
        } else {
          const int mcu = memsys_.mcu_for(a.block);
          lat += static_cast<double>(mesh_.round_trip(c, memsys_.attach_tile(mcu))) +
                 static_cast<double>(memsys_.mcu(mcu).request_latency());
        }
        const auto fill = local.access(set, a.block, c, all_);
        if (fill.evicted) directory_.on_evict(c, fill.victim_block);
      } else {
        local.touch(set, a.block);
        if (a.is_write) {
          const mem::CoherenceAction act = directory_.on_write(c, a.block);
          if (act.invalidations > 0) {
            for (int peer = 0; peer < cfg_.cores; ++peer)
              if (peer != c) banks_[static_cast<std::size_t>(peer)].invalidate(set, a.block);
          }
        }
      }
    } else {
      const auto r = banks_[static_cast<std::size_t>(bank)].access(set, a.block, c, mask);
      hit = r.hit;
      if (!hit) {
        const int mcu = memsys_.mcu_for(a.block);
        lat += static_cast<double>(mesh_.round_trip(bank, memsys_.attach_tile(mcu))) +
               static_cast<double>(memsys_.mcu(mcu).request_latency());
      }
    }

    ThreadAcct& t = acct_[static_cast<std::size_t>(c)];
    t.lat_sum += lat;
    t.hop_sum += hops;
    ++t.accesses;
    t.hits += hit ? 1 : 0;
  }

 private:
  void page_flip_invalidate(BlockAddr block) {
    // Bulk-invalidate every line of the flipped page wherever it resides
    // (paper Sec. II-E: "when a page is first classified as shared all the
    // lines belonging to the page are invalidated").
    const std::uint64_t page = page_of(addr_of_block(block));
    const BlockAddr first = block_of(page * kPageBytes);
    for (BlockAddr b = first; b < first + kPageBytes / kLineBytes; ++b) {
      for (int bank = 0; bank < cfg_.cores; ++bank) {
        if (banks_[static_cast<std::size_t>(bank)].invalidate(
                mem::set_index(b, cfg_.sets_log2), b))
          ++page_invalidation_lines_;
        if (banks_[static_cast<std::size_t>(bank)].invalidate(
                mem::snuca_set_index(b, cfg_.cores, cfg_.sets_log2), b))
          ++page_invalidation_lines_;
      }
    }
  }

  const MachineConfig& cfg_;
  const workload::SplashProfile& p_;
  const SchemeKind kind_;
  noc::Mesh mesh_;
  noc::MemorySystem memsys_;
  std::vector<mem::SetAssocCache> banks_;
  core::PageClassifier classifier_;
  mem::MesifDirectory directory_;
  core::DeltaController ctrl_;
  std::vector<umon::Umon> umons_;
  std::vector<core::TileInput> inputs_;
  const mem::WayMask all_;
  std::vector<ThreadAcct> acct_;
  std::uint64_t page_invalidation_lines_ = 0;
};

}  // namespace

MtResult run_multithreaded(const MachineConfig& cfg, const workload::SplashProfile& p,
                           SchemeKind kind, MtConfig mtc) {
  assert(p.threads <= cfg.cores);
  MtChip chip(cfg, p, kind);
  workload::SplashGen gen(p, mtc.seed);
  MtResult res;
  res.app = p.name;
  res.scheme = std::string(to_string(kind));

  // Access budget per epoch per thread from the interval model.
  double cpi_est = p.cpi_base + p.apki / 1000.0 * 100.0 / p.mlp;
  const std::uint64_t total_per_thread = mtc.accesses_per_thread;
  std::uint64_t issued_per_thread = 0;
  std::uint64_t epoch = 0;

  while (issued_per_thread < total_per_thread) {
    chip.begin_epoch(epoch);
    const std::uint64_t budget = std::min<std::uint64_t>(
        std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(static_cast<double>(cfg.epoch_cycles) /
                                          cpi_est * p.apki / 1000.0)),
        total_per_thread - issued_per_thread);
    for (std::uint64_t i = 0; i < budget; ++i)
      for (int t = 0; t < p.threads; ++t) chip.access(gen.next());
    issued_per_thread += budget;
    chip.end_epoch();

    // Refresh the CPI estimate from the measured epoch latency.
    const double avg_lat = chip.avg_latency_or(100.0);
    cpi_est = p.cpi_base + p.apki / 1000.0 * avg_lat / p.mlp;
    ++epoch;
  }

  chip.summarize(res);
  return res;
}

}  // namespace delta::sim
