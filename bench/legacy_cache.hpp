// Frozen copy of the array-of-structs SetAssocCache that the simulator
// shipped before the structure-of-arrays rewrite (see docs/performance.md).
// It exists for two jobs:
//   * micro_throughput benchmarks the live SoA engine against it, so the
//     speedup that justified the rewrite is re-measured on every run and
//     checked against the floors compiled into that harness;
//   * tests/test_sweep.cpp uses it as the behavioural oracle — the SoA
//     cache must report identical hit/evict/victim decisions on any trace.
// Do not "fix" or optimise this copy; its value is that it never changes.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hpp"
#include "mem/cache.hpp"
#include "mem/replacement.hpp"

namespace delta::bench::legacy {

/// The pre-rewrite bank: one struct per line, linear scans over Way
/// records, 32-bit per-set LRU clock.  API mirrors the subset of
/// mem::SetAssocCache the comparisons need; results are reported through
/// the live mem::AccessResult type so callers can compare field by field.
class SetAssocCache {
 public:
  SetAssocCache(std::uint32_t sets, int ways)
      : sets_(sets), ways_(ways), lines_(std::size_t{sets} * ways), clocks_(sets, 0) {}

  std::uint32_t sets() const { return sets_; }
  int ways() const { return ways_; }

  mem::AccessResult access(std::uint32_t set, BlockAddr block, CoreId owner,
                           mem::WayMask insert_mask) {
    Way* w = set_begin(set);
    std::uint32_t& clock = clocks_[set];

    for (int i = 0; i < ways_; ++i) {
      if (w[i].valid && w[i].block == block) {
        w[i].stamp = ++clock;
        ++hits_;
        return mem::AccessResult{.hit = true, .way = i};
      }
    }

    ++misses_;
    mem::AccessResult res{};
    if (insert_mask == 0) return res;  // Bypass: nowhere to allocate.

    int victim = -1;
    std::uint32_t best_stamp = std::numeric_limits<std::uint32_t>::max();
    for (int i = 0; i < ways_; ++i) {
      if (!(insert_mask & (mem::WayMask{1} << i))) continue;
      if (!w[i].valid) {
        victim = i;
        break;
      }
      if (w[i].stamp <= best_stamp) {
        best_stamp = w[i].stamp;
        victim = i;
      }
    }
    if (victim < 0) return res;

    if (w[victim].valid) {
      res.evicted = true;
      res.victim_block = w[victim].block;
      res.victim_owner = w[victim].owner;
    }
    w[victim].block = block;
    w[victim].owner = owner;
    w[victim].valid = true;
    w[victim].stamp = ++clock;
    res.way = victim;
    return res;
  }

  bool touch(std::uint32_t set, BlockAddr block) {
    Way* w = set_begin(set);
    for (int i = 0; i < ways_; ++i) {
      if (w[i].valid && w[i].block == block) {
        w[i].stamp = ++clocks_[set];
        return true;
      }
    }
    return false;
  }

  bool invalidate(std::uint32_t set, BlockAddr block) {
    Way* w = set_begin(set);
    for (int i = 0; i < ways_; ++i) {
      if (w[i].valid && w[i].block == block) {
        w[i].valid = false;
        return true;
      }
    }
    return false;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Way {
    BlockAddr block = 0;
    std::uint32_t stamp = 0;
    CoreId owner = kInvalidCore;
    bool valid = false;
  };

  Way* set_begin(std::uint32_t set) { return lines_.data() + std::size_t{set} * ways_; }

  std::uint32_t sets_;
  int ways_;
  std::vector<Way> lines_;
  std::vector<std::uint32_t> clocks_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace delta::bench::legacy
