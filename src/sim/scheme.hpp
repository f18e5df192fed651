// Partitioning-scheme plug-in interface.
//
// A scheme answers two questions for every LLC access — which bank does
// this core's address map to, and which ways may the core insert into —
// but answers them ahead of time: it publishes an EpochPlan of plain
// tables on the epoch barrier, and the access engines look both answers
// up there.  The four schemes of the paper's evaluation (unpartitioned
// S-NUCA, private/equal-partitioned LLC, the ideal zero-overhead
// centralized allocator, and DELTA itself) plus the two
// literature-comparison allocators (CARMA's way auction, LFOC's fairness
// clustering) are created through make_scheme(); docs/schemes.md
// describes all six and the plan each one publishes.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "mem/address.hpp"
#include "mem/replacement.hpp"

namespace delta::core {
class Cbt;
class WpUnit;
}  // namespace delta::core

namespace delta::sim {

class Chip;

struct BankTarget {
  BankId bank = 0;
  std::uint32_t set = 0;
};

enum class SchemeKind {
  kSnuca,
  kPrivate,
  kIdealCentralized,
  kDelta,
  kCarma,  ///< Market-based: sealed-bid way auction (CARMA, PAPERS.md).
  kLfoc,   ///< Fairness clustering: shared per-class slices (LFOC, PAPERS.md).
};

/// The four schemes the paper's figures compare, in canonical order.
inline constexpr std::array<SchemeKind, 4> kPaperSchemeKinds = {
    SchemeKind::kSnuca, SchemeKind::kPrivate, SchemeKind::kIdealCentralized,
    SchemeKind::kDelta};

/// Every scheme the shootout harnesses compare, in canonical order.
inline constexpr std::array<SchemeKind, 6> kAllSchemeKinds = {
    SchemeKind::kSnuca,   SchemeKind::kPrivate, SchemeKind::kIdealCentralized,
    SchemeKind::kDelta,   SchemeKind::kCarma,   SchemeKind::kLfoc};

std::string_view to_string(SchemeKind k);

/// What the access engines read on every LLC access, published by the
/// scheme and constant between two begin_epoch() calls.  In hardware terms
/// it is the per-core Cache Bank Table (Sec. II-C1) and the per-bank WP
/// way masks (Sec. II-C2), which also change only at reconfiguration; the
/// comparison schemes (S-NUCA interleave, private home banks, LFOC's
/// cluster masks) are special fillings of the same tables.  Chip sizes the
/// plan and fills it with home routing and full masks before reset(); the
/// scheme rewrites whatever it changes in reset() and begin_epoch().
///
/// Routing: bank = route[core][(block >> bank_shift) & 0xFF] and
/// set = (block >> set_shift) & set_mask.  A bank id fits a route byte
/// because MachineConfig::validate() caps the tile count at 128.  The
/// route writers below (interleave, home, route_cbt) are the only writers
/// of `route`: each also records the set of banks a core's table names in
/// `reach`, so the access engine can tell in O(cores) which cores reach a
/// bank without rescanning every route byte.
struct EpochPlan {
  using Route = std::array<std::uint8_t, mem::kNumChunks>;

  /// A set of banks, one bit per bank id (at most 128 tiles).
  struct BankSet {
    std::array<std::uint64_t, 2> words{};

    void insert(BankId b) {
      words[static_cast<std::size_t>(b) >> 6] |= std::uint64_t{1} << (b & 63);
    }
    bool contains(BankId b) const {
      return (words[static_cast<std::size_t>(b) >> 6] >> (b & 63)) & 1;
    }
    /// The set's only bank, or kInvalidBank when it holds none or several.
    BankId sole() const {
      const int n = std::popcount(words[0]) + std::popcount(words[1]);
      if (n != 1) return kInvalidBank;
      return words[0] != 0 ? std::countr_zero(words[0]) : 64 + std::countr_zero(words[1]);
    }
  };

  int banks = 0;
  int sets_log2 = 0;
  int bank_shift = 0;
  int set_shift = 0;
  std::uint32_t set_mask = 0;
  std::vector<Route> route;         ///< One 256-entry bank table per core.
  std::vector<BankSet> reach;       ///< Per core: the banks its route names.
  std::vector<mem::WayMask> masks;  ///< [core * banks + bank]; 0 == bypass.
  /// The scheme reads per-core UMONs.  Read once, right after reset():
  /// without it the chip builds, feeds and decays no monitor.
  bool monitors = false;

  BankTarget target(CoreId core, BlockAddr block) const {
    return BankTarget{
        route[static_cast<std::size_t>(core)][(block >> bank_shift) & 0xFFu],
        static_cast<std::uint32_t>(block >> set_shift) & set_mask};
  }
  mem::WayMask mask(CoreId core, BankId bank) const {
    return masks[static_cast<std::size_t>(core) * static_cast<std::size_t>(banks) +
                 static_cast<std::size_t>(bank)];
  }

  /// Sizes the tables for `banks` tiles: home routing, `all` everywhere.
  void init(int banks, int sets_log2, mem::WayMask all);
  /// S-NUCA line interleaving: bank = block mod banks, the bank bits
  /// stripped from the set index.
  void interleave();
  /// Every core's addresses map to its own bank.
  void home();
  /// Core `core` routes through `cbt` (bank-select byte above the set).
  void route_cbt(CoreId core, const core::Cbt& cbt);
  /// Bank `bank`'s masks from its WP unit.
  void masks_from(BankId bank, const core::WpUnit& wp);
  /// One mask for every (core, bank).
  void fill_masks(mem::WayMask m);
};

// A scheme runs only on the epoch barrier: reset() before the first epoch,
// begin_epoch() at the start of each.  Everything the access engines need
// during the epoch is in the EpochPlan it leaves behind, so no scheme code
// runs per access and the intra-run engine's parallel workers never call
// into a scheme.  Anything cross-bank (reallocation, challenges, bulk
// invalidation) happens in begin_epoch().
class Scheme {
 public:
  virtual ~Scheme() = default;
  virtual std::string_view name() const = 0;
  /// Called once before the first epoch (chip fully constructed, monitors
  /// not yet: set plan.monitors here to get them).  Publishes the first
  /// plan.
  virtual void reset(Chip&) {}
  /// Called at the start of every epoch; reconfiguration happens here, and
  /// so does every change to the chip's plan.
  virtual void begin_epoch(Chip&, std::uint64_t /*epoch*/) {}
  /// Ways currently allocated to `core` chip-wide (for reporting).
  virtual int allocated_ways(const Chip&, CoreId core) const = 0;

  // ---- Introspection for the invariant checker (src/check). ----
  /// The per-bank way-partition unit / per-core CBT when the scheme
  /// maintains them (delta, ideal-central, carma); null for schemes
  /// without that state (snuca, private, lfoc), which the checker treats
  /// as "not applicable".
  virtual const core::WpUnit* wp_unit(BankId) const { return nullptr; }
  virtual const core::Cbt* cbt_of(CoreId) const { return nullptr; }
  /// Test-only fault injection: silently drops ownership of one way so
  /// tests can prove the invariant checker catches way leaks.  Returns
  /// false for schemes without WP state.
  virtual bool debug_drop_way(BankId, int /*way*/) { return false; }
};

struct SchemeOptions {
  /// Reconfiguration interval for the centralized scheme, in epochs
  /// (10 = 1 ms as in the paper; 1000 = 100 ms for the Fig. 13 study).
  int central_interval_epochs = 10;
  friend bool operator==(const SchemeOptions&, const SchemeOptions&) = default;
};

std::unique_ptr<Scheme> make_scheme(SchemeKind kind, SchemeOptions opts = {});

}  // namespace delta::sim
