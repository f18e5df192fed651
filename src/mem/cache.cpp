#include "mem/cache.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace delta::mem {

namespace {

/// Validates the geometry before any row is sized from it.
int checked_ways(std::uint32_t sets, int ways) {
  if (ways < 1 || ways > simd::kMaxRankLanes)
    throw std::invalid_argument("SetAssocCache: ways must be in [1, 32], got " +
                                std::to_string(ways));
  if (sets == 0) throw std::invalid_argument("SetAssocCache: sets must be >= 1");
  return ways;
}

constexpr std::size_t roundup64(std::size_t n) { return (n + 63) & ~std::size_t{63}; }

}  // namespace

SetAssocCache::SetAssocCache(std::uint32_t sets, int ways)
    : sets_(sets),
      ways_(checked_ways(sets, ways)),
      lanes_(simd::rank_lanes(ways)),
      low_bytes_(4 * static_cast<std::size_t>(lanes_)),
      valid_offset_(low_bytes_ + 3 * static_cast<std::size_t>(lanes_)),
      stride_(low_bytes_ + roundup64(3 * static_cast<std::size_t>(lanes_) + 4)),
      records_(std::size_t{sets} * (stride_ / sizeof(Line)), Line{}) {
  // The tag compare reads both tag rows in whole kTagGroup-lane groups,
  // and each row is lanes_ (a multiple of kTagGroup) wide, so every read
  // stays inside its row.  Records start zeroed: every validity word is 0.
  for (std::uint32_t s = 0; s < sets_; ++s) {
    // Every lane starts ranked by its index: the ways in use hold a
    // permutation of [0, ways) and the spare lanes stay older than all of
    // them.
    std::uint8_t* const r = ranks(s);
    for (int i = 0; i < lanes_; ++i) r[i] = static_cast<std::uint8_t>(i);
    std::uint8_t* const o = owners(s);
    for (int w = 0; w < ways_; ++w) o[w] = kNoOwner;
  }
}

AccessResult SetAssocCache::miss_fill(std::uint32_t set, BlockAddr block, CoreId owner,
                                      WayMask insert_mask) {
  assert(set < sets_);
  if (block >= simd::kTag40Limit)
    throw std::out_of_range("SetAssocCache: block " + std::to_string(block) +
                            " does not fit a 40-bit tag");
  if (owner < 0 || owner >= CoreId{kNoOwner})
    throw std::out_of_range("SetAssocCache: owner " + std::to_string(owner) +
                            " is outside [0, 254]");
  std::uint32_t* const lo = low_tags(set);
  std::uint8_t* const hi = high_tags(set);
  std::uint8_t* const owners_row = owners(set);
  std::uint8_t* const rank_row = ranks(set);

  ++stats_.misses;
  AccessResult res{};
  const std::uint32_t eligible = insert_mask & full_mask(ways_);
  if (eligible == 0) return res;  // Bypass: nowhere to allocate.

  // Prefer an invalid eligible way; otherwise evict the eligible LRU.
  int victim;
  std::uint32_t& valid = valid_word(set);
  if (const std::uint32_t free = eligible & ~valid; free != 0) {
    victim = std::countr_zero(free);
  } else {
    victim = simd::rank_oldest(rank_row, lanes_, eligible);
    res.evicted = true;
    res.victim_block = block_at(set, victim);
    res.victim_owner = owner_at(set, victim);
    ++stats_.evictions;
  }

  lo[victim] = static_cast<std::uint32_t>(block);
  hi[victim] = static_cast<std::uint8_t>(block >> 32);
  owners_row[victim] = static_cast<std::uint8_t>(owner);
  valid |= std::uint32_t{1} << victim;
  simd::rank_promote(rank_row, lanes_, victim);
  res.way = victim;
  return res;
}

bool SetAssocCache::touch(std::uint32_t set, BlockAddr block) {
  if (const std::uint32_t match = match_ways(set, block); match != 0) {
    simd::rank_promote(ranks(set), lanes_, std::countr_zero(match));
    return true;
  }
  return false;
}

bool SetAssocCache::invalidate(std::uint32_t set, BlockAddr block) {
  if (const std::uint32_t match = match_ways(set, block); match != 0) {
    valid_word(set) &= ~match;
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
  for (std::uint32_t s = 0; s < sets_; ++s)
    n += static_cast<unsigned>(std::popcount(valid_word(s)));
  return n;
}

}  // namespace delta::mem
