// Occupancy-based fine-grained intra-bank partition enforcement.
//
// The paper notes (Sec. II-C2) that DELTA's allocation policy composes with
// replacement-based fine-grained partitioning schemes (PriSM, Vantage,
// Futility Scaling) instead of way bitmasks.  This module provides such an
// enforcer: the allocation targets still come from the WP unit's way
// counts, but insertion is unrestricted and the *victim choice* steers each
// partition's occupancy toward its target — the partition most above target
// donates the victim.  Unlike way masks this supports fractional shares and
// avoids way-granularity fragmentation; unlike them it only converges
// statistically (Sec. V discusses the same trade-off for [14][15][21]).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace delta::core {

class OccupancyEnforcer {
 public:
  /// `capacity_lines` = sets x ways of the bank this enforcer guards.
  OccupancyEnforcer(int max_cores, std::uint64_t capacity_lines)
      : capacity_(capacity_lines),
        target_(static_cast<std::size_t>(max_cores), 0.0),
        lines_(static_cast<std::size_t>(max_cores), 0) {}

  /// Sets the target share for `core` as a fraction of bank ways.
  void set_target_ways(CoreId core, double ways, int ways_per_bank) {
    target_[static_cast<std::size_t>(core)] = ways / static_cast<double>(ways_per_bank);
  }

  /// Resynchronises occupancy from externally-counted lines (after bulk
  /// invalidations etc.).
  void set_occupancy(CoreId core, std::uint64_t lines) {
    lines_[static_cast<std::size_t>(core)] = lines;
  }

  void on_insert(CoreId owner) { ++lines_[static_cast<std::size_t>(owner)]; }
  void on_evict(CoreId owner) {
    auto& n = lines_[static_cast<std::size_t>(owner)];
    if (n > 0) --n;
  }
  /// One fill by `owner` that displaced a line of `victim_owner`
  /// (kInvalidCore when it took an empty way or evicted an unowned line).
  void on_fill(CoreId owner, CoreId victim_owner) {
    on_insert(owner);
    if (victim_owner != kInvalidCore) on_evict(victim_owner);
  }

  std::uint64_t occupancy(CoreId core) const {
    return lines_[static_cast<std::size_t>(core)];
  }

  /// Partition currently farthest *above* its target — the preferred
  /// eviction donor.  Returns kInvalidCore when nobody exceeds target
  /// (plain LRU applies then).
  CoreId preferred_victim() const {
    CoreId best = kInvalidCore;
    double worst_excess = 0.0;
    for (std::size_t c = 0; c < lines_.size(); ++c) {
      const double share = capacity_ > 0
                               ? static_cast<double>(lines_[c]) /
                                     static_cast<double>(capacity_)
                               : 0.0;
      const double excess = share - target_[c];
      if (excess > worst_excess + 1e-12) {
        worst_excess = excess;
        best = static_cast<CoreId>(c);
      }
    }
    return best;
  }

 private:
  std::uint64_t capacity_;
  std::vector<double> target_;
  std::vector<std::uint64_t> lines_;
};

/// Selector for the intra-bank enforcement flavour.
enum class IntraEnforcement : std::uint8_t {
  kWayMask,    ///< Paper default: insertion bitmasks (Sec. II-C2).
  kOccupancy,  ///< Replacement-based alternative (PriSM/Vantage style).
};

}  // namespace delta::core
