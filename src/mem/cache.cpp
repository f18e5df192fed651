#include "mem/cache.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace delta::mem {

namespace {

/// Validates the geometry before any row is sized from it.
int checked_ways(std::uint32_t sets, int ways) {
  if (ways < 1 || ways > simd::kRankLanes)
    throw std::invalid_argument("SetAssocCache: ways must be in [1, 32], got " +
                                std::to_string(ways));
  if (sets == 0) throw std::invalid_argument("SetAssocCache: sets must be >= 1");
  return ways;
}

}  // namespace

SetAssocCache::SetAssocCache(std::uint32_t sets, int ways)
    : sets_(sets),
      ways_(checked_ways(sets, ways)),
      blocks_(std::size_t{sets} * static_cast<std::size_t>(ways), 0),
      owners_(std::size_t{sets} * static_cast<std::size_t>(ways), kInvalidCore),
      valid_(sets, 0),
      ranks_(sets) {
  // Every lane starts ranked by its index: the ways in use hold a
  // permutation of [0, ways) and the spare lanes stay older than all of them.
  for (RankRow& row : ranks_)
    for (int i = 0; i < simd::kRankLanes; ++i) row.lane[i] = static_cast<std::uint8_t>(i);
}

AccessResult SetAssocCache::miss_fill(std::uint32_t set, BlockAddr block, CoreId owner,
                                      WayMask insert_mask, CoreId evict_pref) {
  assert(set < sets_);
  const std::size_t base = std::size_t{set} * static_cast<std::size_t>(ways_);
  BlockAddr* const blocks = blocks_.data() + base;
  CoreId* const owners = owners_.data() + base;
  std::uint8_t* const ranks = ranks_[set].lane;

  ++stats_.misses;
  AccessResult res{};
  const std::uint32_t eligible = insert_mask & full_mask(ways_);
  if (eligible == 0) return res;  // Bypass: nowhere to allocate.

  // Prefer an invalid eligible way; otherwise evict the eligible LRU,
  // restricted to the preferred victim owner's lines when it holds any.
  int victim;
  if (const std::uint32_t free = eligible & ~valid_[set]; free != 0) {
    victim = std::countr_zero(free);
  } else {
    std::uint32_t pref = 0;
    if (evict_pref != kInvalidCore)
      for (int i = 0; i < ways_; ++i)
        pref |= static_cast<std::uint32_t>(owners[i] == evict_pref) << i;
    pref &= eligible;
    victim = simd::rank_oldest(ranks, pref != 0 ? pref : eligible);
    res.evicted = true;
    res.victim_block = blocks[victim];
    res.victim_owner = owners[victim];
    ++stats_.evictions;
  }

  blocks[victim] = block;
  owners[victim] = owner;
  valid_[set] |= std::uint32_t{1} << victim;
  simd::rank_promote(ranks, victim);
  res.way = victim;
  return res;
}

bool SetAssocCache::touch(std::uint32_t set, BlockAddr block) {
  if (const std::uint32_t match = match_ways(set, block); match != 0) {
    simd::rank_promote(ranks_[set].lane, std::countr_zero(match));
    return true;
  }
  return false;
}

bool SetAssocCache::invalidate(std::uint32_t set, BlockAddr block) {
  if (const std::uint32_t match = match_ways(set, block); match != 0) {
    valid_[set] &= ~match;
    ++stats_.invalidations;
    return true;
  }
  return false;
}

std::uint64_t SetAssocCache::lines_owned_by(CoreId core) const {
  std::uint64_t n = 0;
  for_each_line([&](std::uint32_t, int, BlockAddr, CoreId o) {
    if (o == core) ++n;
  });
  return n;
}

std::uint64_t SetAssocCache::valid_lines() const {
  std::uint64_t n = 0;
  for (const std::uint32_t vm : valid_) n += static_cast<unsigned>(std::popcount(vm));
  return n;
}

}  // namespace delta::mem
