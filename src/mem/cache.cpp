#include "mem/cache.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace delta::mem {

namespace {

/// Validates the geometry before any row is sized from it.
int checked_ways(std::uint32_t sets, int ways) {
  if (ways < 1 || ways > simd::kRowLanes)
    throw std::invalid_argument("SetAssocCache: ways must be in [1, 16], got " +
                                std::to_string(ways));
  if (sets == 0) throw std::invalid_argument("SetAssocCache: sets must be >= 1");
  return ways;
}

}  // namespace

SetAssocCache::SetAssocCache(std::uint32_t sets, int ways)
    : sets_(sets),
      ways_(checked_ways(sets, ways)),
      records_(std::size_t{sets} * (kStride / sizeof(Line)), Line{}) {
  // The kernels read whole kLanes-lane rows, so every read stays inside
  // its row.  Records start zeroed: every validity word is 0.
  for (std::uint32_t s = 0; s < sets_; ++s) {
    // Every lane starts ranked by its index: the ways in use hold a
    // permutation of [0, ways) and the spare lanes stay older than all of
    // them.
    std::uint8_t* const r = ranks(s);
    for (int i = 0; i < kLanes; ++i) r[i] = static_cast<std::uint8_t>(i);
    std::uint8_t* const o = owners(s);
    for (int w = 0; w < ways_; ++w) o[w] = kNoOwner;
  }
}

AccessResult SetAssocCache::access(std::uint32_t set, BlockAddr block, CoreId owner,
                                   WayMask insert_mask) {
  assert(set < sets_);
  AccessResult res;
  Kernel(*this).access(set, block, owner, insert_mask, &res);
  return res;
}

void SetAssocCache::throw_unfit(BlockAddr block, CoreId owner) {
  if (block >= simd::kTag40Limit)
    throw std::out_of_range("SetAssocCache: block " + std::to_string(block) +
                            " does not fit a 40-bit tag");
  throw std::out_of_range("SetAssocCache: owner " + std::to_string(owner) +
                          " is outside [0, 254]");
}

bool SetAssocCache::touch(std::uint32_t set, BlockAddr block) {
  if (const std::uint32_t match = match_ways(set, block); match != 0) {
    simd::rank_promote(ranks(set), std::countr_zero(match));
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
