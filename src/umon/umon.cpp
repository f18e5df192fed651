#include "umon/umon.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/simd.hpp"

namespace delta::umon {

void UmonConfig::validate() const {
  const auto reject = [](const char* field, long long value, const char* rule) {
    throw std::invalid_argument(std::string("umon.") + field + " = " +
                                std::to_string(value) + ": " + rule);
  };
  const auto in = [](long long v, long long lo, long long hi) {
    return v >= lo && v <= hi;
  };
  if (!in(max_ways, 1, 1 << 16)) reject("max_ways", max_ways, "must be in [1, 65536]");
  if (!in(sets_log2, 1, 20)) reject("sets_log2", sets_log2, "must be in [1, 20]");
  if (!in(set_dilution, 1, 1LL << sets_log2))
    reject("set_dilution", set_dilution, "must be in [1, 2^umon.sets_log2]");
  if (!in(coarse_ways, 1, max_ways))
    reject("coarse_ways", coarse_ways, "must be in [1, umon.max_ways]");
}

Umon::Umon(UmonConfig cfg) : cfg_(cfg) {
  cfg_.validate();
  const auto dilution = static_cast<std::uint32_t>(cfg_.set_dilution);
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  sampler_ = Sampler{(std::uint32_t{1} << cfg_.sets_log2) - 1, UINT64_MAX / dilution + 1,
                     kHalf / dilution + (kHalf % dilution != 0 ? 1 : 0)};
  const int sets = 1 << cfg_.sets_log2;
  // Ceiling division: monitored sets are the multiples of set_dilution in
  // [0, sets), so a dilution that does not divide the set count still needs
  // a stack for the last monitored set.
  num_stacks_ = (sets + cfg_.set_dilution - 1) / cfg_.set_dilution;
  assert(num_stacks_ >= 1);
  ways_ = static_cast<std::size_t>(cfg_.max_ways);
  tags_ = std::make_unique_for_overwrite<std::uint32_t[]>(
      static_cast<std::size_t>(num_stacks_) * ways_);
  depth_.assign(static_cast<std::size_t>(num_stacks_), 0);
  hit_ctr_.assign(static_cast<std::size_t>(cfg_.max_ways), 0.0);
  const int buckets = (cfg_.max_ways + cfg_.coarse_ways - 1) / cfg_.coarse_ways;
  coarse_ctr_.assign(static_cast<std::size_t>(buckets), 0.0);
}

void Umon::access_sampled(std::uint32_t stack_idx, BlockAddr block) {
  const BlockAddr wide = block >> cfg_.sets_log2;
  if (wide > UINT32_MAX)
    throw std::out_of_range("Umon: block " + std::to_string(block) +
                            " has a stack tag wider than 32 bits");
  const auto tag = static_cast<std::uint32_t>(wide);
  ++sampled_accesses_;
  std::uint32_t* const st = stack(stack_idx);
  std::uint32_t& depth = depth_[stack_idx];

  // Repeated-hit fast path: after a move-to-front, re-accesses of the same
  // block land at stack distance 0, where the move is a no-op.  Runs of
  // hits to one hot block (the common case for loop/graph frontiers)
  // coalesce to a front compare plus two counter bumps — identical counter
  // and stack state to the general path below.
  if (depth != 0 && st[0] == tag) {
    hit_ctr_[0] += 1.0;
    coarse_ctr_[0] += 1.0;
    return;
  }

  // Vectorized shadow-tag search (common/simd.hpp): stacks run to
  // max_ways entries and most probes match nothing, so the wide compare
  // pays off on exactly the accesses that cost the most.
  std::size_t pos = simd::find_u32(st, depth, tag);
  if (pos < depth) {
    hit_ctr_[pos] += 1.0;
    coarse_ctr_[pos / static_cast<std::size_t>(cfg_.coarse_ways)] += 1.0;
  } else {
    sampled_misses_ += 1.0;
    // A full stack recycles its LRU slot; otherwise the stack grows.
    if (depth < ways_) ++depth;
    pos = depth - 1;
  }
  // Move-to-front: slide [0, pos) down one slot and put the tag on top.
  std::memmove(st + 1, st, pos * sizeof(std::uint32_t));
  st[0] = tag;
}

void Umon::feed(const BlockAddr* blocks, std::size_t n) {
  // Far enough ahead to cover a stack line's miss behind the search of the
  // blocks in between; sampled blocks are sparse, so the window is short.
  constexpr std::size_t kPrefetchDistance = 2;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n)
      simd::prefetch_read(stack(sampler_.stack_of(blocks[i + kPrefetchDistance])));
    assert(sampler_.sampled(blocks[i]));
    access_sampled(sampler_.stack_of(blocks[i]), blocks[i]);
  }
}

double Umon::hits_between(int lo_ways, int hi_ways) const {
  lo_ways = std::clamp(lo_ways, 0, cfg_.max_ways);
  hi_ways = std::clamp(hi_ways, 0, cfg_.max_ways);
  double h = 0.0;
  for (int d = lo_ways; d < hi_ways; ++d) h += hit_ctr_[static_cast<std::size_t>(d)];
  return scale(h);
}

double Umon::coarse_hits_between(int lo_ways, int hi_ways) const {
  lo_ways = std::clamp(lo_ways, 0, cfg_.max_ways);
  hi_ways = std::clamp(hi_ways, 0, cfg_.max_ways);
  if (hi_ways <= lo_ways) return 0.0;
  // Integrate the coarse counters treating each bucket's hits as uniformly
  // spread over its `coarse_ways` positions.
  double h = 0.0;
  for (int d = lo_ways; d < hi_ways; ++d) {
    const std::size_t b = static_cast<std::size_t>(d / cfg_.coarse_ways);
    h += coarse_ctr_[b] / static_cast<double>(cfg_.coarse_ways);
  }
  return scale(h);
}

MissCurve Umon::miss_curve() const {
  std::vector<double> m(static_cast<std::size_t>(cfg_.max_ways) + 1);
  double cum_hits = 0.0;
  const double total = static_cast<double>(sampled_accesses_);
  m[0] = scale(total);
  for (int w = 1; w <= cfg_.max_ways; ++w) {
    cum_hits += hit_ctr_[static_cast<std::size_t>(w - 1)];
    m[static_cast<std::size_t>(w)] = scale(total - cum_hits);
  }
  MissCurve curve(std::move(m));
  curve.make_monotone();
  return curve;
}

MissCurve Umon::coarse_miss_curve() const {
  std::vector<double> m(static_cast<std::size_t>(cfg_.max_ways) + 1);
  const double total = static_cast<double>(sampled_accesses_);
  double cum = 0.0;
  m[0] = scale(total);
  for (int w = 1; w <= cfg_.max_ways; ++w) {
    const std::size_t b = static_cast<std::size_t>((w - 1) / cfg_.coarse_ways);
    cum += coarse_ctr_[b] / static_cast<double>(cfg_.coarse_ways);
    m[static_cast<std::size_t>(w)] = scale(std::max(0.0, total - cum));
  }
  MissCurve curve(std::move(m));
  curve.make_monotone();
  return curve;
}

void Umon::decay(double keep_fraction) {
  for (auto& c : hit_ctr_) c *= keep_fraction;
  for (auto& c : coarse_ctr_) c *= keep_fraction;
  sampled_misses_ *= keep_fraction;
  sampled_accesses_ = static_cast<std::uint64_t>(
      static_cast<double>(sampled_accesses_) * keep_fraction);
}

void Umon::reset() {
  std::fill(depth_.begin(), depth_.end(), 0);
  std::fill(hit_ctr_.begin(), hit_ctr_.end(), 0.0);
  std::fill(coarse_ctr_.begin(), coarse_ctr_.end(), 0.0);
  sampled_misses_ = 0.0;
  sampled_accesses_ = 0;
}

std::uint64_t Umon::storage_bits() const {
  // Tag entries: num_stacks * max_ways tags of ~28 bits (partial tags),
  // counters: 32-bit each.  Fine monitors carry max_ways counters, coarse
  // monitors max_ways / coarse_ways — the saving the paper highlights.
  const std::uint64_t tags =
      static_cast<std::uint64_t>(num_stacks_) * cfg_.max_ways * 28;
  const std::uint64_t coarse_counters =
      static_cast<std::uint64_t>(coarse_ctr_.size()) * 32;
  return tags + coarse_counters;
}

}  // namespace delta::umon
