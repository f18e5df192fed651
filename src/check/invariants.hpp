// Chip-wide invariant checker (tier-2 `check` test layer).
//
// Every partitioning scheme in the simulator maintains redundant state —
// way-ownership bitmaps, per-core CBT range tables, the plan's routing
// and mask copies, the acquisition-order list the controller sums
// allocations over — and the paper's correctness story rests on these
// views agreeing at every reconfiguration boundary.  The InvariantChecker audits that agreement
// from the outside: it plugs into Chip's epoch hook (sim::EpochChecker),
// runs right after the scheme's begin_epoch() reconfiguration, and
// validates
//
//   * way conservation per bank: every way owned by a real core,
//   * the reserved home floor (min_ways) for every active core,
//   * allocation accounting: the scheme's chip-wide way total for a core
//     equals the sum over all banks' WP units (catches acq_order drift),
//   * CBT validity: ranges tile the full 256-chunk index space, the flat
//     chunk map matches the range list and the plan's route copy, every
//     mapped bank is reachable (holds >= 1 way), and range sizes stay
//     proportional to the allocation recorded at rebuild time,
//   * residency agreement: every resident line is in exactly the (bank,
//     set) its owner's current mapping produces — which subsumes
//     bulk-invalidation completeness after a remap — with no duplicate
//     blocks per set.
//
// Violations are recorded (bounded), optionally thrown, and mirrored into
// the observability event trace as kInvariantViolation events so failing
// runs can be inspected with the PR-1 exporters.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "mem/directory.hpp"
#include "sim/chip.hpp"

namespace delta::check {

enum class InvariantKind : std::uint8_t {
  kWayConservation = 0,   ///< A way's owner is not a valid core id.
  kHomeFloor,             ///< Active core below min_ways in its home bank.
  kAllocationAccounting,  ///< allocated_ways() != sum of per-bank ways.
  kCbtCoverage,           ///< Ranges do not tile chunks 0..255 contiguously.
  kCbtMapMismatch,        ///< Flat chunk map disagrees with the range list.
  kCbtReachability,       ///< A mapped bank holds no ways for the core.
  kCbtProportionality,    ///< Range size drifts from the rebuild allocation.
  kResidencyAgreement,    ///< Line resident where its owner no longer maps.
  kDuplicateLine,         ///< Same block twice in one set.
  kDirectoryState,        ///< MESIF entry breaks its state's sharer rules.
  kDirectoryAgreement,    ///< Directory sharer without a resident copy.
  kAccessConservation,    ///< Cross-scheme access totals diverge (lockstep).
  kDemandConservation,    ///< Miss/memory/NoC message totals inconsistent.
  kStaticControl,         ///< Static scheme emitted control/invalidations.
  kCount
};

constexpr std::string_view invariant_kind_name(InvariantKind k) {
  switch (k) {
    case InvariantKind::kWayConservation: return "way_conservation";
    case InvariantKind::kHomeFloor: return "home_floor";
    case InvariantKind::kAllocationAccounting: return "allocation_accounting";
    case InvariantKind::kCbtCoverage: return "cbt_coverage";
    case InvariantKind::kCbtMapMismatch: return "cbt_map_mismatch";
    case InvariantKind::kCbtReachability: return "cbt_reachability";
    case InvariantKind::kCbtProportionality: return "cbt_proportionality";
    case InvariantKind::kResidencyAgreement: return "residency_agreement";
    case InvariantKind::kDuplicateLine: return "duplicate_line";
    case InvariantKind::kDirectoryState: return "directory_state";
    case InvariantKind::kDirectoryAgreement: return "directory_agreement";
    case InvariantKind::kAccessConservation: return "access_conservation";
    case InvariantKind::kDemandConservation: return "demand_conservation";
    case InvariantKind::kStaticControl: return "static_control";
    case InvariantKind::kCount: break;
  }
  return "?";
}

struct Violation {
  InvariantKind kind = InvariantKind::kCount;
  std::uint64_t epoch = 0;
  CoreId core = kInvalidCore;
  BankId bank = kInvalidBank;
  std::int64_t value = 0;   ///< Observed.
  std::int64_t expect = 0;  ///< Expected / bound.
  std::string detail;
};

std::string to_string(const Violation& v);

/// Thrown by InvariantChecker when CheckerOptions::throw_on_violation is
/// set (fail-fast mode for tests); what() carries the formatted violation.
class InvariantError : public std::runtime_error {
 public:
  explicit InvariantError(const Violation& v);
  const Violation& violation() const { return v_; }

 private:
  Violation v_;
};

struct CheckerOptions {
  /// Throw InvariantError on the first violation instead of accumulating.
  bool throw_on_violation = false;
  /// Detail records kept; past this, violations are counted but not stored.
  std::size_t max_recorded = 256;
  /// Run the O(capacity) residency sweep every N epochs (0 disables it;
  /// the cheap structural checks still run every epoch).
  int sweep_interval = 1;
};

class InvariantChecker : public sim::EpochChecker {
 public:
  explicit InvariantChecker(CheckerOptions opts = {}) : opts_(opts) {}

  /// Chip epoch hook: structural checks every epoch, residency sweep at
  /// the configured cadence.
  void on_epoch(sim::Chip& chip, std::uint64_t epoch) override;

  // Individual passes, callable one-shot from tests.
  void check_partitioning(sim::Chip& chip, std::uint64_t epoch);
  void check_cbts(sim::Chip& chip, std::uint64_t epoch);
  void check_residency(sim::Chip& chip, std::uint64_t epoch);

  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t total_violations() const { return total_; }
  bool clean() const { return total_ == 0; }
  void clear() {
    violations_.clear();
    total_ = 0;
  }

 private:
  void report(sim::Chip& chip, Violation v);

  CheckerOptions opts_;
  std::vector<Violation> violations_;
  std::uint64_t total_ = 0;
};

// ---- MESIF directory invariants (standalone: the directory is exercised
// by the SPLASH estimator's private baseline and by tests, not by Chip).
// Both sweep the directory's dense table, whose non-empty entries
// for_each_entry visits in ascending block order. ----

/// Per-entry state rules: Invalid entries have no sharers, E/M exactly one,
/// Shared at least one with any designated forwarder among them, and no
/// sharer bit at or above the core count.
void check_directory(const mem::MesifDirectory& dir, std::uint64_t epoch,
                     std::vector<Violation>& out);

/// Sharer-implies-resident cross-check against the caller's cache state.
/// Only meaningful when caches and directory are kept in lockstep: every
/// cache eviction calls MesifDirectory::on_evict.
void check_directory_agreement(
    const mem::MesifDirectory& dir,
    const std::function<bool(CoreId, BlockAddr)>& resident, std::uint64_t epoch,
    std::vector<Violation>& out);

}  // namespace delta::check
