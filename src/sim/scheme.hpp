// Partitioning-scheme plug-in interface.
//
// A scheme answers two questions on every LLC access — which bank does this
// core's address map to, and which ways may the core insert into — and gets
// a begin_epoch() hook for reconfiguration.  The four schemes of the
// paper's evaluation (unpartitioned S-NUCA, private/equal-partitioned LLC,
// the ideal zero-overhead centralized allocator, and DELTA itself) plus the
// two literature-comparison allocators (CARMA's way auction, LFOC's
// fairness clustering) are created through make_scheme(); docs/schemes.md
// describes all six.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/types.hpp"
#include "mem/cache.hpp"
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

// Thread-locality contract for the intra-run engine (sim/intra.hpp): the
// during-epoch hooks below are called from parallel workers, so they must
// confine themselves to
//   * map(): epoch-constant routing state only (CBTs, hashing) — called
//     concurrently for different cores;
//   * insert_mask() / evict_preference() / on_insertion(): state owned by
//     the `bank` argument (per-bank WpUnit, enforcer slice) or
//     epoch-constant state — called concurrently for *different* banks,
//     serially within one bank in the canonical access order;
//   * insert_mask is constant between begin_epoch calls (the intra engine
//     asks it once per (core, bank) run; evict_preference may move on
//     every insertion and is asked per access).
// Anything cross-bank (reallocation, challenges, bulk invalidation) belongs
// in begin_epoch(), which runs on the epoch barrier.  All six in-tree
// schemes satisfy this; test_intra enforces it end to end and the TSan CI
// job watches for violations dynamically.  The contract is also checked
// statically: the phase-effect lint (lint/phase_check.hpp, ctest label
// `lint-semantic`) walks every Scheme subclass's during-epoch closure and
// rejects member writes, non-const helpers, unannotated pointer-member
// calls and banned cross-bank Chip calls.  Legitimate carve-outs are
// annotated in-source with `// delta-phase: epoch-constant` (field only
// mutated on the epoch barrier) or `// delta-lint: allow(phase-effect)`
// (line-scoped waiver) — see docs/static-analysis.md.
class Scheme {
 public:
  virtual ~Scheme() = default;
  virtual std::string_view name() const = 0;
  /// Called once before the first epoch (chip fully constructed).
  virtual void reset(Chip&) {}
  /// Called at the start of every epoch; reconfiguration happens here.
  virtual void begin_epoch(Chip&, std::uint64_t /*epoch*/) {}
  /// Address-to-bank mapping for an access by `core`.
  virtual BankTarget map(const Chip&, CoreId core, BlockAddr block) const = 0;
  /// Insertion mask for `core` in `bank` (0 == bypass, do not allocate).
  virtual mem::WayMask insert_mask(const Chip&, CoreId core, BankId bank) const = 0;
  /// Preferred eviction donor in `bank` (occupancy-based enforcement);
  /// kInvalidCore == plain masked LRU.
  virtual CoreId evict_preference(const Chip&, CoreId /*core*/, BankId /*bank*/) const {
    return kInvalidCore;
  }
  /// Fill/eviction feedback for schemes tracking per-partition occupancy.
  virtual void on_insertion(Chip&, CoreId /*owner*/, BankId /*bank*/,
                            const mem::AccessResult& /*result*/) {}
  /// Ways currently allocated to `core` chip-wide (for reporting).
  virtual int allocated_ways(const Chip&, CoreId core) const = 0;

  // ---- Introspection for the invariant checker (src/check). ----
  /// The per-bank way-partition unit / per-core CBT when the scheme
  /// maintains them (delta, ideal-central); null for schemes without that
  /// state (snuca, private), which the checker treats as "not applicable".
  virtual const core::WpUnit* wp_unit(BankId) const { return nullptr; }
  virtual const core::Cbt* cbt_of(CoreId) const { return nullptr; }
  /// Occupancy-enforcement bookkeeping for (`bank`, `core`): the line count
  /// the scheme believes the partition holds, or -1 when it keeps none.
  virtual std::int64_t tracked_occupancy(BankId, CoreId) const { return -1; }
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
