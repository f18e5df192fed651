// The four cache organisations of the paper's evaluation (Sec. III-A).
#include "sim/scheme.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "alloc/peekahead.hpp"
#include "alloc/placement.hpp"
#include "core/controller.hpp"
#include "sim/chip.hpp"
#include "sim/market_schemes.hpp"
#include "sim/scheme_common.hpp"

namespace delta::sim {
namespace {

// ---------------------------------------------------------------------------
// Unpartitioned S-NUCA: line-interleaved static mapping, no insertion limits.
// ---------------------------------------------------------------------------
class SnucaScheme final : public Scheme {
 public:
  std::string_view name() const override { return "snuca"; }

  void reset(Chip& chip) override { chip.plan().interleave(); }

  int allocated_ways(const Chip& chip, CoreId) const override {
    // Nominal equal share of the unpartitioned cache.
    return chip.config().ways_per_bank;
  }
};

// ---------------------------------------------------------------------------
// Private LLC: equal static partitioning, each core uses only its home bank.
// ---------------------------------------------------------------------------
class PrivateScheme final : public Scheme {
 public:
  std::string_view name() const override { return "private"; }

  // The chip's initial plan (home routing, full masks) is this scheme.

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
    EpochPlan& plan = chip.plan();
    plan.monitors = true;
    publish(chip);
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

    publish(chip);
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

  bool debug_drop_way(BankId bank, int way) override {
    if (ctrl_ == nullptr) return false;
    ctrl_->debug_set_way_owner(bank, way, kInvalidCore);
    return true;
  }

  const core::DeltaController& controller() const { return *ctrl_; }

 private:
  /// The controller's CBTs and WP masks.
  void publish(Chip& chip) const {
    EpochPlan& plan = chip.plan();
    for (CoreId c = 0; c < chip.cores(); ++c) plan.route_cbt(c, ctrl_->cbt(c));
    for (BankId b = 0; b < chip.cores(); ++b) plan.masks_from(b, ctrl_->wp(b));
  }

  std::unique_ptr<core::DeltaController> ctrl_;
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

  void reset(Chip& chip) override {
    init_central_state(chip, wp_, cbts_);
    chip.plan().monitors = true;
    publish_central_state(chip, wp_, cbts_);
  }

  void begin_epoch(Chip& chip, std::uint64_t epoch) override {
    if (opts_.central_interval_epochs <= 0 ||
        epoch % static_cast<std::uint64_t>(opts_.central_interval_epochs) != 0)
      return;
    reconfigure(chip, epoch);
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
    publish_central_state(chip, wp_, cbts_);
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
