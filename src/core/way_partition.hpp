// Way-partitioning (WP) unit: one per LLC bank (Sec. II-C2).
//
// Tracks which core owns the right to *insert* into each way; lookups are
// unrestricted.  Way ownership changes (intra-bank reallocation, challenge
// grants) do not touch resident lines — the new owner's insertions evict
// them naturally, which is exactly why intra-bank reassignment is cheap in
// the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "mem/replacement.hpp"

namespace delta::core {

class WpUnit {
 public:
  explicit WpUnit(int ways, CoreId initial_owner = kInvalidCore)
      : owners_(static_cast<std::size_t>(ways), initial_owner) {}

  int ways() const { return static_cast<int>(owners_.size()); }

  CoreId owner(int way) const { return owners_[static_cast<std::size_t>(way)]; }

  /// Insertion bitmask for `core` (bit i set when core owns way i).  The
  /// access path reads the epoch plan's masks, which
  /// sim::EpochPlan::masks_from builds from owner() in one pass per bank,
  /// so this scan is off the hot path.
  mem::WayMask mask_of(CoreId core) const {
    mem::WayMask m = 0;
    for (int w = 0; w < ways(); ++w)
      if (owners_[static_cast<std::size_t>(w)] == core) m |= mem::WayMask{1} << w;
    return m;
  }

  int ways_of(CoreId core) const {
    int n = 0;
    for (CoreId o : owners_)
      if (o == core) ++n;
    return n;
  }

  /// Distinct cores holding at least one way, in ascending core order.
  std::vector<CoreId> partitions() const {
    std::vector<CoreId> out;
    for (CoreId o : owners_) {
      if (o == kInvalidCore) continue;
      bool seen = false;
      for (CoreId s : out) seen |= (s == o);
      if (!seen) out.push_back(o);
    }
    return out;
  }

  /// Moves up to `count` ways from `from` to `to`; highest-index ways first
  /// (matching the paper's Fig. 3 example where ways 12-15 change hands).
  /// Returns the number actually moved.
  int transfer(CoreId from, CoreId to, int count) {
    int moved = 0;
    for (int w = ways() - 1; w >= 0 && moved < count; --w) {
      auto& o = owners_[static_cast<std::size_t>(w)];
      if (o == from) {
        o = to;
        ++moved;
      }
    }
    return moved;
  }

  /// Hands the entire bank to `core` (idle-bank fast path).
  void assign_all(CoreId core) {
    for (auto& o : owners_) o = core;
  }

  /// Directly sets the owner of one way (used by centralized enforcement
  /// when rebuilding a bank's layout wholesale).
  void set_owner(int way, CoreId core) {
    owners_[static_cast<std::size_t>(way)] = core;
  }

  /// Storage cost in bits: N cores x W ways bitmask (Sec. II-C2).
  static std::uint64_t storage_bits(int cores, int ways) {
    return static_cast<std::uint64_t>(cores) * static_cast<std::uint64_t>(ways);
  }

 private:
  std::vector<CoreId> owners_;
};

}  // namespace delta::core
