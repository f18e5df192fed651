// CARMA and LFOC: two post-DELTA allocation policies from the literature,
// implemented as first-class schemes so the shootout harnesses, the
// invariant checker and the differential oracle can compare them head to
// head with the paper's four organisations.
#include "sim/market_schemes.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "alloc/auction.hpp"
#include "alloc/fairshare.hpp"
#include "alloc/placement.hpp"
#include "mem/replacement.hpp"
#include "sim/chip.hpp"
#include "sim/scheme_common.hpp"

namespace delta::sim {
namespace {

/// Reconfiguration cadence of both market/clustering schemes, in epochs.
constexpr std::uint64_t kMarketIntervalEpochs = 10;
/// CARMA: per-application spending budget per auction, in normalised
/// misses-per-kilo-access utility units.  Equal budgets are the market's
/// fairness mechanism; a smaller budget makes allocations stickier.
constexpr double kCarmaBudget = 64.0;
/// CARMA: ways sold per auction round.
constexpr int kCarmaLotWays = 1;
/// LFOC: way floor granted to every populated cluster in each bank.
constexpr int kLfocMinClusterWays = 2;

// ---------------------------------------------------------------------------
// CARMA: cores bid per-epoch from an equal utility budget; a deterministic
// sealed-bid auction clears chip-wide way counts, which are then placed
// locality-aware and enforced with DELTA's own CBT/WP mechanism (like the
// ideal-central comparator, so the two differ only in the allocator).
// ---------------------------------------------------------------------------
class CarmaScheme final : public Scheme {
 public:
  std::string_view name() const override { return "carma"; }

  void reset(Chip& chip) override {
    init_central_state(chip, wp_, cbts_);
    chip.plan().monitors = true;
    publish_central_state(chip, wp_, cbts_);
  }

  void begin_epoch(Chip& chip, std::uint64_t epoch) override {
    if (epoch % kMarketIntervalEpochs == 0) reconfigure(chip, epoch);
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
    std::vector<int> active_core;
    alloc::AuctionRequest req;
    for (int c = 0; c < n; ++c) {
      AppSlot& s = chip.slot(c);
      if (!s.active) continue;
      active_core.push_back(c);
      // Normalise each curve to misses per kilo-access so bids are
      // comparable across applications with different access rates — the
      // equal budget then gives every core the same purchasing power.
      const umon::MissCurve curve = s.umon->miss_curve();
      const double acc = std::max(1.0, s.umon->accesses());
      std::vector<double> scaled = curve.raw();
      for (double& m : scaled) m = 1000.0 * m / acc;
      req.curves.emplace_back(std::move(scaled));
      req.budgets.push_back(kCarmaBudget);
    }
    if (obs::EventRecorder* rec = chip.event_sink())
      rec->record(obs::EventKind::kCentralReconfig, epoch, /*core=*/-1,
                  /*bank=*/-1, /*other=*/-1, active_core.size());
    if (active_core.empty()) return;

    req.total_ways = n * chip.config().ways_per_bank;
    req.min_ways = chip.config().delta.min_ways;
    req.max_ways = chip.config().delta.max_ways_per_app;
    req.lot_ways = kCarmaLotWays;
    const alloc::AuctionResult auction = alloc::clear_auction(req);
    chip.traffic().count(noc::MsgType::kMarketBid, auction.bids);
    chip.traffic().count(noc::MsgType::kMarketGrant, auction.rounds);

    alloc::PlacementRequest preq;
    preq.mesh = &chip.mesh();
    preq.ways = auction.ways;
    preq.home_tile = active_core;
    preq.ways_per_bank = chip.config().ways_per_bank;
    preq.reserved_home_ways = chip.config().delta.min_ways;
    const alloc::Placement placement = alloc::place_allocations(preq);

    apply_central_placement(chip, epoch, active_core, placement, wp_, cbts_);
    publish_central_state(chip, wp_, cbts_);
  }

  std::vector<core::WpUnit> wp_;
  std::vector<core::Cbt> cbts_;
};

// ---------------------------------------------------------------------------
// LFOC: miss-curve-shape clusters (streaming / sensitive / thrashing) share
// one contiguous way slice per cluster, identical in every bank, over a
// plain S-NUCA interleaved mapping — CAT-style shared masks rather than
// per-core partitions.  Resizing a slice never remaps addresses, so the
// scheme emits no invalidations, ever.
// ---------------------------------------------------------------------------
class LfocScheme final : public Scheme {
 public:
  std::string_view name() const override { return "lfoc"; }

  void reset(Chip& chip) override {
    chip.plan().interleave();
    chip.plan().monitors = true;
    // Until the first classification everyone is one sensitive cluster
    // holding the whole cache.
    cls_.assign(static_cast<std::size_t>(chip.cores()),
                alloc::CurveClass::kSensitive);
    cluster_ways_ = {0, chip.config().ways_per_bank, 0};
    publish_masks(chip);
  }

  void begin_epoch(Chip& chip, std::uint64_t epoch) override {
    if (epoch % kMarketIntervalEpochs == 0) reconfigure(chip, epoch);
  }

  /// Reported as the width of the core's cluster slice (the ways it may use
  /// in any one bank) — shared-capacity semantics, like snuca's nominal
  /// per-bank share.
  int allocated_ways(const Chip&, CoreId core) const override {
    return cluster_ways_[static_cast<std::size_t>(
        cls_[static_cast<std::size_t>(core)])];
  }

 private:
  void reconfigure(Chip& chip, std::uint64_t epoch) {
    const int n = chip.cores();
    std::vector<int> active_core;
    alloc::FairShareRequest req;
    req.cfg.ways_per_bank = chip.config().ways_per_bank;
    req.cfg.min_cluster_ways = kLfocMinClusterWays;
    for (int c = 0; c < n; ++c) {
      AppSlot& s = chip.slot(c);
      if (!s.active) continue;
      active_core.push_back(c);
      req.curves.push_back(s.umon->miss_curve());
      req.accesses.push_back(s.umon->accesses());
    }
    chip.traffic().count(noc::MsgType::kCentralCollect, static_cast<std::uint64_t>(n));
    chip.traffic().count(noc::MsgType::kCentralBroadcast, static_cast<std::uint64_t>(n));
    if (obs::EventRecorder* rec = chip.event_sink())
      rec->record(obs::EventKind::kCentralReconfig, epoch, /*core=*/-1,
                  /*bank=*/-1, /*other=*/-1, active_core.size());
    if (active_core.empty()) return;

    const alloc::FairShareResult part = alloc::fair_partition(req);
    // Idle cores ride in the widest populated cluster (ties: lowest index)
    // so every core keeps a non-empty insertion slice.
    int widest = 0;
    for (int c = 1; c < alloc::kNumCurveClasses; ++c)
      if (part.cluster_ways[static_cast<std::size_t>(c)] >
          part.cluster_ways[static_cast<std::size_t>(widest)])
        widest = c;
    cls_.assign(static_cast<std::size_t>(n),
                static_cast<alloc::CurveClass>(widest));
    for (std::size_t a = 0; a < active_core.size(); ++a)
      cls_[static_cast<std::size_t>(active_core[a])] = part.cls[a];
    cluster_ways_ = part.cluster_ways;
    publish_masks(chip);
  }

  /// Every core inserts into its cluster's slice, the same in every bank.
  void publish_masks(Chip& chip) const {
    std::array<mem::WayMask, alloc::kNumCurveClasses> slice{};
    int offset = 0;
    for (int c = 0; c < alloc::kNumCurveClasses; ++c) {
      const int w = cluster_ways_[static_cast<std::size_t>(c)];
      slice[static_cast<std::size_t>(c)] =
          w > 0 ? ((mem::full_mask(w)) << offset) : mem::WayMask{0};
      offset += w;
    }
    EpochPlan& plan = chip.plan();
    const auto banks = static_cast<std::size_t>(plan.banks);
    for (std::size_t c = 0; c < cls_.size(); ++c)
      std::fill_n(plan.masks.begin() + static_cast<std::ptrdiff_t>(c * banks), banks,
                  slice[static_cast<std::size_t>(cls_[c])]);
  }

  std::vector<alloc::CurveClass> cls_;
  std::array<int, alloc::kNumCurveClasses> cluster_ways_{};
};

}  // namespace

std::unique_ptr<Scheme> make_carma_scheme() { return std::make_unique<CarmaScheme>(); }

std::unique_ptr<Scheme> make_lfoc_scheme() { return std::make_unique<LfocScheme>(); }

}  // namespace delta::sim
