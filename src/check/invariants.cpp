#include "check/invariants.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "core/cbt.hpp"
#include "core/way_partition.hpp"
#include "mem/address.hpp"
#include "obs/recorder.hpp"

namespace delta::check {

std::string to_string(const Violation& v) {
  std::ostringstream os;
  os << "invariant '" << invariant_kind_name(v.kind) << "' violated at epoch "
     << v.epoch;
  if (v.core != kInvalidCore) os << ", core " << v.core;
  if (v.bank != kInvalidBank) os << ", bank " << v.bank;
  os << ": " << v.detail << " (observed " << v.value << ", expected " << v.expect
     << ")";
  return os.str();
}

InvariantError::InvariantError(const Violation& v)
    : std::runtime_error(to_string(v)), v_(v) {}

void InvariantChecker::report(sim::Chip& chip, Violation v) {
  ++total_;
  if (obs::EventRecorder* rec = chip.event_sink())
    rec->record(obs::EventKind::kInvariantViolation, v.epoch, v.core, v.bank,
                static_cast<int>(v.kind),
                static_cast<std::uint64_t>(v.value < 0 ? 0 : v.value),
                static_cast<double>(v.value), static_cast<double>(v.expect));
  if (violations_.size() < opts_.max_recorded) violations_.push_back(v);
  if (opts_.throw_on_violation) throw InvariantError(v);
}

void InvariantChecker::on_epoch(sim::Chip& chip, std::uint64_t epoch) {
  check_partitioning(chip, epoch);
  check_cbts(chip, epoch);
  if (opts_.sweep_interval > 0 &&
      epoch % static_cast<std::uint64_t>(opts_.sweep_interval) == 0)
    check_residency(chip, epoch);
}

void InvariantChecker::check_partitioning(sim::Chip& chip, std::uint64_t epoch) {
  sim::Scheme& sch = chip.scheme();
  const int cores = chip.cores();
  if (sch.wp_unit(0) == nullptr) return;  // Scheme keeps no WP state.

  // Way conservation: every way owned by a real core.  Per-core totals are
  // accumulated for the accounting check below.
  std::vector<std::int64_t> per_core(static_cast<std::size_t>(cores), 0);
  for (BankId b = 0; b < cores; ++b) {
    const core::WpUnit* wp = sch.wp_unit(b);
    if (wp == nullptr) continue;
    for (int w = 0; w < wp->ways(); ++w) {
      const CoreId o = wp->owner(w);
      if (o < 0 || o >= cores) {
        report(chip, Violation{InvariantKind::kWayConservation, epoch, o, b, o,
                               0, "way " + std::to_string(w) +
                                      " has no valid owner"});
        continue;
      }
      ++per_core[static_cast<std::size_t>(o)];
    }
  }

  // Reserved home floor (Sec. II-D): an active core never drops below
  // min_ways in its own bank — neither challenges nor intra-bank transfers
  // may breach it.
  const int floor = chip.config().delta.min_ways;
  for (CoreId c = 0; c < cores; ++c) {
    if (!chip.slot(c).active) continue;
    const core::WpUnit* home = sch.wp_unit(c);
    if (home == nullptr) continue;
    const int have = home->ways_of(c);
    if (have < floor)
      report(chip, Violation{InvariantKind::kHomeFloor, epoch, c, c, have,
                             floor, "active core below reserved home floor"});
  }

  // Allocation accounting: the scheme's chip-wide total for a core must
  // equal the sum over all banks' WP units.  DELTA sums over its
  // acquisition-order list, so this catches acq_order drift (a bank the
  // core owns ways in but no longer tracks, or vice versa).
  for (CoreId c = 0; c < cores; ++c) {
    const std::int64_t claimed = sch.allocated_ways(chip, c);
    if (claimed != per_core[static_cast<std::size_t>(c)])
      report(chip,
             Violation{InvariantKind::kAllocationAccounting, epoch, c,
                       kInvalidBank, claimed,
                       per_core[static_cast<std::size_t>(c)],
                       "scheme's chip-wide way total disagrees with WP units"});
  }
}

void InvariantChecker::check_cbts(sim::Chip& chip, std::uint64_t epoch) {
  sim::Scheme& sch = chip.scheme();
  const int cores = chip.cores();
  for (CoreId c = 0; c < cores; ++c) {
    if (!chip.slot(c).active) continue;
    const core::Cbt* cbt = sch.cbt_of(c);
    if (cbt == nullptr) continue;

    const auto& ranges = cbt->ranges();
    if (ranges.empty()) {
      report(chip, Violation{InvariantKind::kCbtCoverage, epoch, c,
                             kInvalidBank, 0, 1, "CBT has no ranges"});
      continue;
    }

    // Coverage: ranges tile chunks 0..kNumChunks-1 contiguously, in order.
    int cursor = 0;
    bool covered = true;
    for (const core::CbtRange& r : ranges) {
      if (r.first_chunk != cursor || r.last_chunk < r.first_chunk) {
        covered = false;
        break;
      }
      cursor = r.last_chunk + 1;
    }
    if (!covered || cursor != mem::kNumChunks) {
      report(chip, Violation{InvariantKind::kCbtCoverage, epoch, c,
                             kInvalidBank, cursor, mem::kNumChunks,
                             "ranges do not tile the chunk space"});
      continue;  // Downstream checks assume full coverage.
    }

    // Flat-map agreement and per-bank chunk totals.
    std::vector<std::int64_t> chunks_of(static_cast<std::size_t>(cores), 0);
    for (const core::CbtRange& r : ranges) {
      if (r.bank < 0 || r.bank >= cores) {
        report(chip, Violation{InvariantKind::kCbtMapMismatch, epoch, c, r.bank,
                               r.bank, 0, "range maps an invalid bank"});
        continue;
      }
      chunks_of[static_cast<std::size_t>(r.bank)] +=
          r.last_chunk - r.first_chunk + 1;
      for (int ch = r.first_chunk; ch <= r.last_chunk; ++ch) {
        if (cbt->bank_for_chunk(ch) != r.bank) {
          report(chip,
                 Violation{InvariantKind::kCbtMapMismatch, epoch, c, r.bank,
                           cbt->bank_for_chunk(ch), r.bank,
                           "chunk map disagrees with range list at chunk " +
                               std::to_string(ch)});
          break;  // One report per range is enough.
        }
      }
    }

    // The engines route through the plan's copy of the map, so a copy the
    // scheme forgot to refresh misroutes every access it covers.
    const auto& map = cbt->select_map();
    const auto& route = chip.plan().route[static_cast<std::size_t>(c)];
    for (std::size_t v = 0; v < map.size(); ++v) {
      if (route[v] != map[v]) {
        report(chip, Violation{InvariantKind::kCbtMapMismatch, epoch, c, map[v],
                               route[v], map[v],
                               "plan route disagrees with the CBT at select byte " +
                                   std::to_string(v)});
        break;
      }
    }

    // Reachability: a mapped bank must hold at least one of the core's ways
    // ("all of a core's addresses stay backed by capacity it owns").
    for (const core::CbtRange& r : ranges) {
      const core::WpUnit* wp = sch.wp_unit(r.bank);
      if (wp != nullptr && wp->ways_of(c) < 1)
        report(chip,
               Violation{InvariantKind::kCbtReachability, epoch, c, r.bank, 0,
                         1, "mapped bank holds no ways for the core"});
    }

    // Proportionality vs the allocation recorded by the last rebuild.
    // Live way counts drift afterwards (intra-bank transfers do not remap
    // addresses), so the rebuild-time record is the correct reference.
    // Largest-remainder rounding plus the starvation fix move a range by
    // at most 2 chunks off the exact proportional share.
    const auto& alloc = cbt->last_alloc();
    std::int64_t total = 0;
    for (const auto& [b, w] : alloc) total += w;
    if (total > 0) {
      std::vector<bool> in_alloc(static_cast<std::size_t>(cores), false);
      for (const auto& [b, w] : alloc) {
        if (b < 0 || b >= cores) continue;  // Reported above via ranges.
        in_alloc[static_cast<std::size_t>(b)] = true;
        const double exact = static_cast<double>(mem::kNumChunks) *
                             static_cast<double>(w) /
                             static_cast<double>(total);
        const std::int64_t actual = chunks_of[static_cast<std::size_t>(b)];
        if (w > 0 && actual < 1)
          report(chip, Violation{InvariantKind::kCbtProportionality, epoch, c,
                                 b, actual, 1,
                                 "allocated bank mapped to no chunks"});
        else if (std::abs(static_cast<double>(actual) - exact) > 2.0)
          report(chip,
                 Violation{InvariantKind::kCbtProportionality, epoch, c, b,
                           actual, std::llround(exact),
                           "range size drifted from the proportional share"});
      }
      for (BankId b = 0; b < cores; ++b)
        if (chunks_of[static_cast<std::size_t>(b)] > 0 &&
            !in_alloc[static_cast<std::size_t>(b)])
          report(chip,
                 Violation{InvariantKind::kCbtProportionality, epoch, c, b,
                           chunks_of[static_cast<std::size_t>(b)], 0,
                           "bank mapped but absent from rebuild allocation"});
    }
  }
}

void InvariantChecker::check_residency(sim::Chip& chip, std::uint64_t epoch) {
  const int cores = chip.cores();
  std::vector<BlockAddr> set_blocks;
  for (BankId b = 0; b < cores; ++b) {
    std::uint32_t cur_set = ~std::uint32_t{0};
    set_blocks.clear();
    chip.bank(b).for_each_line([&](std::uint32_t set, int way, BlockAddr block,
                                   CoreId owner) {
      (void)way;
      if (set != cur_set) {
        cur_set = set;
        set_blocks.clear();
      }
      for (BlockAddr prev : set_blocks)
        if (prev == block)
          report(chip, Violation{InvariantKind::kDuplicateLine, epoch, owner, b,
                                 static_cast<std::int64_t>(set), 0,
                                 "block resident twice in one set"});
      set_blocks.push_back(block);
      if (owner < 0 || owner >= cores) {
        report(chip, Violation{InvariantKind::kResidencyAgreement, epoch, owner,
                               b, owner, 0, "resident line with invalid owner"});
        return;
      }
      // The line must sit exactly where its owner's *current* mapping puts
      // the block — this is what bulk invalidation after a remap preserves.
      const sim::BankTarget t = chip.plan().target(owner, block);
      if (t.bank != b || t.set != set)
        report(chip,
               Violation{InvariantKind::kResidencyAgreement, epoch, owner, b,
                         t.bank, b,
                         "line resident outside its owner's current mapping"});
    });
  }
}

void check_directory(const mem::MesifDirectory& dir, std::uint64_t epoch,
                     std::vector<Violation>& out) {
  const int n = dir.num_cores();
  const std::uint64_t valid_mask =
      n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  dir.for_each_entry([&](BlockAddr block, mem::CoherenceState st,
                         std::uint64_t sharers, CoreId fwd) {
    const auto sharer_count = static_cast<std::int64_t>(std::popcount(sharers));
    const std::string where = " (block " + std::to_string(block) + ")";
    if ((sharers & ~valid_mask) != 0)
      out.push_back(Violation{InvariantKind::kDirectoryState, epoch,
                              kInvalidCore, kInvalidBank, sharer_count, n,
                              "sharer bit beyond core count" + where});
    switch (st) {
      case mem::CoherenceState::kInvalid:
        if (sharers != 0)
          out.push_back(Violation{InvariantKind::kDirectoryState, epoch,
                                  kInvalidCore, kInvalidBank, sharer_count, 0,
                                  "invalid entry with sharers" + where});
        break;
      case mem::CoherenceState::kShared:
        if (sharer_count < 1)
          out.push_back(Violation{InvariantKind::kDirectoryState, epoch,
                                  kInvalidCore, kInvalidBank, sharer_count, 1,
                                  "shared entry without sharers" + where});
        if (fwd != kInvalidCore &&
            (fwd < 0 || fwd >= n || ((sharers >> fwd) & 1) == 0))
          out.push_back(Violation{InvariantKind::kDirectoryState, epoch, fwd,
                                  kInvalidBank, fwd, -1,
                                  "forwarder is not a sharer" + where});
        break;
      case mem::CoherenceState::kExclusive:
      case mem::CoherenceState::kModified:
        if (sharer_count != 1)
          out.push_back(Violation{InvariantKind::kDirectoryState, epoch,
                                  kInvalidCore, kInvalidBank, sharer_count, 1,
                                  "E/M entry must have exactly one sharer" +
                                      where});
        break;
    }
  });
}

void check_directory_agreement(
    const mem::MesifDirectory& dir,
    const std::function<bool(CoreId, BlockAddr)>& resident, std::uint64_t epoch,
    std::vector<Violation>& out) {
  const int n = dir.num_cores();
  dir.for_each_entry([&](BlockAddr block, mem::CoherenceState st,
                         std::uint64_t sharers, CoreId fwd) {
    (void)st;
    (void)fwd;
    for (CoreId c = 0; c < n; ++c)
      if (((sharers >> c) & 1) != 0 && !resident(c, block))
        out.push_back(
            Violation{InvariantKind::kDirectoryAgreement, epoch, c,
                      kInvalidBank, 0, 1,
                      "directory lists a sharer without a resident copy "
                      "(block " +
                          std::to_string(block) + ")"});
  });
}

}  // namespace delta::check
