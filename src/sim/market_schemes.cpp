// CARMA and LFOC: two post-DELTA allocation policies from the literature,
// implemented as first-class schemes so the shootout harnesses, the
// invariant checker and the differential oracle can compare them head to
// head with the paper's four organisations.
#include "sim/market_schemes.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "alloc/auction.hpp"
#include "alloc/fairshare.hpp"
#include "alloc/placement.hpp"
#include "mem/address.hpp"
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

  void reset(Chip& chip) override { init_central_state(chip, wp_, cbts_); }

  void begin_epoch(Chip& chip, std::uint64_t epoch) override {
    if (epoch % kMarketIntervalEpochs == 0) reconfigure(chip, epoch);
  }

  BankTarget map(const Chip& chip, CoreId core, BlockAddr block) const override {
    return BankTarget{
        cbts_[static_cast<std::size_t>(core)].lookup(block, chip.config().sets_log2),
        mem::set_index(block, chip.config().sets_log2)};
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
    const auto n = static_cast<std::uint64_t>(chip.cores());
    pow2_banks_ = (n & (n - 1)) == 0;
    bank_mask_ = n - 1;
    bank_shift_ = std::bit_width(n) - 1;
    set_mask_ = (std::uint32_t{1} << chip.config().sets_log2) - 1;
    // Until the first classification everyone is one sensitive cluster
    // holding the whole cache.
    cls_.assign(static_cast<std::size_t>(chip.cores()),
                alloc::CurveClass::kSensitive);
    cluster_ways_ = {0, chip.config().ways_per_bank, 0};
    rebuild_masks(chip.config().ways_per_bank);
  }

  void begin_epoch(Chip& chip, std::uint64_t epoch) override {
    if (epoch % kMarketIntervalEpochs == 0) reconfigure(chip, epoch);
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

  mem::WayMask insert_mask(const Chip&, CoreId core, BankId) const override {
    return masks_[static_cast<std::size_t>(cls_[static_cast<std::size_t>(core)])];
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
    rebuild_masks(chip.config().ways_per_bank);
  }

  void rebuild_masks(int ways_per_bank) {
    int offset = 0;
    for (int c = 0; c < alloc::kNumCurveClasses; ++c) {
      const int w = cluster_ways_[static_cast<std::size_t>(c)];
      masks_[static_cast<std::size_t>(c)] =
          w > 0 ? ((mem::full_mask(w)) << offset) : mem::WayMask{0};
      offset += w;
    }
    (void)ways_per_bank;
  }

  std::vector<alloc::CurveClass> cls_;
  std::array<int, alloc::kNumCurveClasses> cluster_ways_{};
  std::array<mem::WayMask, alloc::kNumCurveClasses> masks_{};
  std::uint64_t bank_mask_ = 0;
  std::uint32_t set_mask_ = 0;
  int bank_shift_ = 0;
  bool pow2_banks_ = false;
};

}  // namespace

std::unique_ptr<Scheme> make_carma_scheme() { return std::make_unique<CarmaScheme>(); }

std::unique_ptr<Scheme> make_lfoc_scheme() { return std::make_unique<LfocScheme>(); }

}  // namespace delta::sim
