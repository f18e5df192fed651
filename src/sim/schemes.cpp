// The four cache organisations of the paper's evaluation (Sec. III-A).
#include "sim/scheme.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <vector>

#include "alloc/peekahead.hpp"
#include "alloc/placement.hpp"
#include "core/controller.hpp"
#include "mem/address.hpp"
#include "sim/chip.hpp"
#include "sim/market_schemes.hpp"
#include "sim/scheme_common.hpp"

namespace delta::sim {
namespace {

std::uint32_t local_set(const Chip& chip, BlockAddr block) {
  return mem::set_index(block, chip.config().sets_log2);
}

// ---------------------------------------------------------------------------
// Unpartitioned S-NUCA: line-interleaved static mapping, no insertion limits.
// ---------------------------------------------------------------------------
class SnucaScheme final : public Scheme {
 public:
  std::string_view name() const override { return "snuca"; }

  void reset(Chip& chip) override {
    // Both Table II machines have power-of-two bank counts, so the
    // per-access interleaving divides reduce to shifts and masks.
    const auto n = static_cast<std::uint64_t>(chip.cores());
    pow2_banks_ = (n & (n - 1)) == 0;
    bank_mask_ = n - 1;
    bank_shift_ = std::bit_width(n) - 1;
    set_mask_ = (std::uint32_t{1} << chip.config().sets_log2) - 1;
  }

  BankTarget map(const Chip& chip, CoreId, BlockAddr block) const override {
    if (pow2_banks_) {
      return BankTarget{static_cast<BankId>(block & bank_mask_),
                        static_cast<std::uint32_t>(block >> bank_shift_) & set_mask_};
    }
    const int n = chip.cores();
    return BankTarget{mem::snuca_bank(block, n),
                      mem::snuca_set_index(block, n, chip.config().sets_log2)};
  }

  mem::WayMask insert_mask(const Chip& chip, CoreId, BankId) const override {
    return mem::full_mask(chip.config().ways_per_bank);
  }

  int allocated_ways(const Chip& chip, CoreId) const override {
    // Nominal equal share of the unpartitioned cache.
    return chip.config().ways_per_bank;
  }

 private:
  std::uint64_t bank_mask_ = 0;
  std::uint32_t set_mask_ = 0;
  int bank_shift_ = 0;
  bool pow2_banks_ = false;
};

// ---------------------------------------------------------------------------
// Private LLC: equal static partitioning, each core uses only its home bank.
// ---------------------------------------------------------------------------
class PrivateScheme final : public Scheme {
 public:
  std::string_view name() const override { return "private"; }

  BankTarget map(const Chip& chip, CoreId core, BlockAddr block) const override {
    return BankTarget{static_cast<BankId>(core), local_set(chip, block)};
  }

  mem::WayMask insert_mask(const Chip& chip, CoreId, BankId) const override {
    return mem::full_mask(chip.config().ways_per_bank);
  }

  int allocated_ways(const Chip& chip, CoreId) const override {
    return chip.config().ways_per_bank;
  }
};

// ---------------------------------------------------------------------------
// DELTA: the distributed controller drives CBT + WP enforcement.
// ---------------------------------------------------------------------------
class DeltaScheme final : public Scheme {
 public:
  std::string_view name() const override { return "delta"; }

  void reset(Chip& chip) override {
    ctrl_ = std::make_unique<core::DeltaController>(
        chip.mesh(), chip.config().delta, chip.config().ways_per_bank,
        chip.config().sets_log2);
    occupancy_mode_ =
        chip.config().delta.intra_enforcement == core::IntraEnforcement::kOccupancy;
    enforcers_.clear();
    if (occupancy_mode_) {
      const auto cap = static_cast<std::uint64_t>(chip.config().sets_per_bank()) *
                       chip.config().ways_per_bank;
      for (int b = 0; b < chip.cores(); ++b)
        enforcers_.emplace_back(chip.cores(), cap);
      sync_enforcers(chip);
    }
  }

  void begin_epoch(Chip& chip, std::uint64_t epoch) override {
    // Re-wire the trace sink every epoch: observers can be attached between
    // construction and run(), and the pointer assignment is free.
    ctrl_->set_recorder(chip.event_sink());
    std::vector<core::TileInput> inputs(static_cast<std::size_t>(chip.cores()));
    for (int c = 0; c < chip.cores(); ++c) {
      AppSlot& s = chip.slot(c);
      core::TileInput& in = inputs[static_cast<std::size_t>(c)];
      in.umon = s.umon.get();
      in.active = s.active;
      in.process_id = s.process_id;
      in.mlp = s.policy_mlp(chip.config().measured_mlp);
    }
    const core::TickResult res = ctrl_->tick(epoch, inputs, &chip.traffic());

    // Apply remaps: group moved chunks by (core, previous bank) and run the
    // bulk-invalidation unit once per group.
    std::map<std::pair<CoreId, BankId>, std::vector<int>> groups;
    for (const core::RemapChunk& rc : res.remaps)
      groups[{rc.core, rc.old_bank}].push_back(rc.chunk);
    for (const auto& [key, chunks] : groups)
      chip.invalidate_core_chunks(key.first, key.second, chunks);

    // Occupancy enforcement: refresh targets from the WP units and resync
    // occupancy counters whenever invalidations may have drifted them.
    if (occupancy_mode_ &&
        (epoch % static_cast<std::uint64_t>(
                     chip.config().delta.inter_interval_epochs) == 0 ||
         !groups.empty())) {
      sync_enforcers(chip);
    }
  }

  BankTarget map(const Chip& chip, CoreId core, BlockAddr block) const override {
    return BankTarget{ctrl_->bank_for(core, block), local_set(chip, block)};
  }

  mem::WayMask insert_mask(const Chip& chip, CoreId core, BankId bank) const override {
    if (occupancy_mode_) {
      // Replacement-based enforcement: insertion is unrestricted (a core
      // only reaches banks its CBT maps anyway); the occupancy-steered
      // victim choice does the partitioning.
      (void)core;
      (void)bank;
      return mem::full_mask(chip.config().ways_per_bank);
    }
    return ctrl_->insert_mask(core, bank);
  }

  CoreId evict_preference(const Chip&, CoreId, BankId bank) const override {
    if (!occupancy_mode_) return kInvalidCore;
    return enforcers_[static_cast<std::size_t>(bank)].preferred_victim();
  }

  void on_insertion(Chip&, CoreId owner, BankId bank,
                    const mem::AccessResult& res) override {
    if (!occupancy_mode_) return;
    // Bank-owned state: on_insertion is only ever invoked by the worker
    // that owns `bank` this phase, so the mutable handle is race-free.
    auto& e = enforcers_[static_cast<std::size_t>(bank)];  // delta-lint: allow(phase-effect)
    e.on_insert(owner);
    if (res.evicted && res.victim_owner != kInvalidCore) e.on_evict(res.victim_owner);
  }

  int allocated_ways(const Chip&, CoreId core) const override {
    return ctrl_->total_ways(core);
  }

  const core::WpUnit* wp_unit(BankId bank) const override {
    return ctrl_ != nullptr ? &ctrl_->wp(bank) : nullptr;
  }

  const core::Cbt* cbt_of(CoreId core) const override {
    return ctrl_ != nullptr ? &ctrl_->cbt(core) : nullptr;
  }

  std::int64_t tracked_occupancy(BankId bank, CoreId core) const override {
    if (!occupancy_mode_) return -1;
    return static_cast<std::int64_t>(
        enforcers_[static_cast<std::size_t>(bank)].occupancy(core));
  }

  bool debug_drop_way(BankId bank, int way) override {
    if (ctrl_ == nullptr) return false;
    ctrl_->debug_set_way_owner(bank, way, kInvalidCore);
    return true;
  }

  const core::DeltaController& controller() const { return *ctrl_; }

 private:
  void sync_enforcers(Chip& chip) {
    for (int b = 0; b < chip.cores(); ++b) {
      auto& e = enforcers_[static_cast<std::size_t>(b)];
      for (int c = 0; c < chip.cores(); ++c) {
        e.set_target_ways(c, ctrl_->wp(b).ways_of(c), chip.config().ways_per_bank);
        e.set_occupancy(c, chip.bank(b).lines_owned_by(c));
      }
    }
  }

  // The controller is rebuilt only in reset()/begin_epoch() (on the epoch
  // barrier) and is read-only while workers run the during-epoch hooks.
  std::unique_ptr<core::DeltaController> ctrl_;  // delta-phase: epoch-constant
  bool occupancy_mode_ = false;
  std::vector<core::OccupancyEnforcer> enforcers_;
};

// ---------------------------------------------------------------------------
// Ideal centralized: zero-overhead Lookahead allocations (computed with the
// allocation-equivalent Peekahead) + locality-aware placement, enforced with
// DELTA's own CBT/WP mechanism (Sec. III-A).  Invalidation costs of
// remapping are modelled in full; computation/collection time is free.
// ---------------------------------------------------------------------------
class IdealCentralScheme final : public Scheme {
 public:
  explicit IdealCentralScheme(SchemeOptions opts) : opts_(opts) {}

  std::string_view name() const override { return "ideal-central"; }

  void reset(Chip& chip) override { init_central_state(chip, wp_, cbts_); }

  void begin_epoch(Chip& chip, std::uint64_t epoch) override {
    if (opts_.central_interval_epochs <= 0 ||
        epoch % static_cast<std::uint64_t>(opts_.central_interval_epochs) != 0)
      return;
    reconfigure(chip, epoch);
  }

  BankTarget map(const Chip& chip, CoreId core, BlockAddr block) const override {
    return BankTarget{
        cbts_[static_cast<std::size_t>(core)].lookup(block, chip.config().sets_log2),
        local_set(chip, block)};
  }

  mem::WayMask insert_mask(const Chip&, CoreId core, BankId bank) const override {
    return wp_[static_cast<std::size_t>(bank)].mask_of(core);
  }

  int allocated_ways(const Chip&, CoreId core) const override {
    int total = 0;
    for (const auto& w : wp_) total += w.ways_of(core);
    return total;
  }

  const core::WpUnit* wp_unit(BankId bank) const override {
    return bank < static_cast<BankId>(wp_.size())
               ? &wp_[static_cast<std::size_t>(bank)]
               : nullptr;
  }

  const core::Cbt* cbt_of(CoreId core) const override {
    return core < static_cast<CoreId>(cbts_.size())
               ? &cbts_[static_cast<std::size_t>(core)]
               : nullptr;
  }

  bool debug_drop_way(BankId bank, int way) override {
    if (bank >= static_cast<BankId>(wp_.size())) return false;
    wp_[static_cast<std::size_t>(bank)].set_owner(way, kInvalidCore);
    return true;
  }

 private:
  void reconfigure(Chip& chip, std::uint64_t epoch) {
    const int n = chip.cores();
    // Collect fine-grained miss curves from all active cores (the
    // centralized hub sees every UMON: 2N messages).
    std::vector<int> active_core;
    alloc::AllocRequest req;
    for (int c = 0; c < n; ++c) {
      AppSlot& s = chip.slot(c);
      if (!s.active) continue;
      active_core.push_back(c);
      req.curves.push_back(s.umon->miss_curve());
    }
    chip.traffic().count(noc::MsgType::kCentralCollect, static_cast<std::uint64_t>(n));
    chip.traffic().count(noc::MsgType::kCentralBroadcast, static_cast<std::uint64_t>(n));
    if (obs::EventRecorder* rec = chip.event_sink())
      rec->record(obs::EventKind::kCentralReconfig, epoch, /*core=*/-1,
                  /*bank=*/-1, /*other=*/-1, active_core.size());
    if (active_core.empty()) return;

    req.total_ways = n * chip.config().ways_per_bank;
    req.min_ways = chip.config().delta.min_ways;
    req.max_ways = chip.config().delta.max_ways_per_app;
    const alloc::AllocResult allocation = alloc::peekahead(req);

    alloc::PlacementRequest preq;
    preq.mesh = &chip.mesh();
    preq.ways = allocation.ways;
    preq.home_tile = active_core;
    preq.ways_per_bank = chip.config().ways_per_bank;
    preq.reserved_home_ways = chip.config().delta.min_ways;
    const alloc::Placement placement = alloc::place_allocations(preq);

    apply_central_placement(chip, epoch, active_core, placement, wp_, cbts_);
  }

  SchemeOptions opts_;
  std::vector<core::WpUnit> wp_;
  std::vector<core::Cbt> cbts_;
};

}  // namespace

std::string_view to_string(SchemeKind k) {
  switch (k) {
    case SchemeKind::kSnuca: return "snuca";
    case SchemeKind::kPrivate: return "private";
    case SchemeKind::kIdealCentralized: return "ideal-central";
    case SchemeKind::kDelta: return "delta";
    case SchemeKind::kCarma: return "carma";
    case SchemeKind::kLfoc: return "lfoc";
  }
  return "?";
}

std::unique_ptr<Scheme> make_scheme(SchemeKind kind, SchemeOptions opts) {
  switch (kind) {
    case SchemeKind::kSnuca: return std::make_unique<SnucaScheme>();
    case SchemeKind::kPrivate: return std::make_unique<PrivateScheme>();
    case SchemeKind::kIdealCentralized:
      return std::make_unique<IdealCentralScheme>(opts);
    case SchemeKind::kDelta: return std::make_unique<DeltaScheme>();
    case SchemeKind::kCarma: return make_carma_scheme();
    case SchemeKind::kLfoc: return make_lfoc_scheme();
  }
  return nullptr;
}

}  // namespace delta::sim
