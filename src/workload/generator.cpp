#include "workload/generator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "workload/shared_stream.hpp"

namespace delta::workload {

std::string to_string(AppClass c) {
  switch (c) {
    case AppClass::kInsensitive: return "I";
    case AppClass::kThrashing: return "T";
    case AppClass::kSensitiveLow: return "L";
    case AppClass::kSensitiveLowMedium: return "LM";
  }
  return "?";
}

std::vector<std::uint64_t> ring_thresholds(const std::vector<double>& cum) {
  assert(!cum.empty() && cum.back() > 0.0);
  const double total = cum.back();
  constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
  std::vector<std::uint64_t> t;
  t.reserve(cum.size() - 1);
  for (std::size_t j = 0; j + 1 < cum.size(); ++j) {
    // Binary search for the first draw whose scaled value reaches cum[j],
    // evaluated exactly as the historical uniform() * total.
    std::uint64_t lo = 0, hi = kDraws;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (static_cast<double>(mid) * 0x1.0p-53 * total >= cum[j]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    t.push_back(lo);
  }
  return t;
}

void TraceGen::RingState::reseed() {
  mul = mix64(salt ^ 0x517cc1b727220a95ULL) | 1;
  add = mix64(salt + 0x2545f4914f6cdd1dULL);
}

TraceGen::TraceGen(const AppProfile& profile, Addr base_addr, std::uint64_t seed)
    : profile_(profile), base_(base_addr), rng_(seed) {
  assert(!profile.phases.empty());
  phase_offset_ = static_cast<std::uint32_t>(mix64(seed ^ 0x5eedULL) & 0xFFFF);

  states_.resize(profile.phases.size());
  for (std::size_t p = 0; p < profile.phases.size(); ++p) {
    const Phase& ph = profile.phases[p];
    PhaseState& st = states_[p];
    assert(!ph.rings.empty());
    BlockAddr cursor = block_of(base_);
    double cum = 0.0;
    std::vector<double> cum_weight;
    for (const Ring& r : ph.rings) {
      RingState rs;
      rs.kind = r.kind;
      rs.base_block = cursor;
      rs.lines = r.kind == RingKind::kStream ? kStreamWrapLines : lines_in(r.bytes);
      if (rs.lines == 0) rs.lines = 1;
      rs.mask = std::bit_floor(rs.lines) - 1;
      rs.idx_lines = std::clamp<std::uint64_t>(rs.lines / 16, 1, 128);
      // Start loops/streams at a seed-dependent offset so replicated copies
      // are phase-shifted relative to each other.
      rs.pos = mix64(seed ^ (cursor * 0x9e37ULL)) % rs.lines;
      rs.reseed();
      cursor += rs.lines;
      assert(r.weight >= 0.0);
      cum += r.weight;
      st.rings.push_back(rs);
      cum_weight.push_back(cum);
    }
    assert(cum > 0.0);
    st.thresholds = ring_thresholds(cum_weight);
  }
  phase_idx_ = 0;
  phase_ = &profile_.phases[0];
}

TraceGen::~TraceGen() {
  if (cursor_.stream != nullptr) cursor_.stream->finish(cursor_);
}

void TraceGen::attach(SharedStream& stream) {
  assert(cursor_.stream == nullptr && epoch_invariant(profile_));
  cursor_.sharer = stream.attach();
  cursor_.stream = &stream;
}

bool epoch_invariant(const AppProfile& profile) {
  return profile.phases.size() <= 1 || profile.phase_len_epochs == 0;
}

void TraceGen::set_epoch(std::uint64_t epoch) {
  if (epoch_invariant(profile_)) return;
  const std::uint64_t idx =
      ((epoch + phase_offset_) / profile_.phase_len_epochs) % profile_.phases.size();
  phase_idx_ = static_cast<std::size_t>(idx);
  phase_ = &profile_.phases[phase_idx_];
}

BlockAddr TraceGen::cold_step(RingState& rs) {
  switch (rs.kind) {
    case RingKind::kGather: {
      // Gather/scatter: one sequential index-array line feeds eight
      // permuted data touches (a 64 B line holds eight u64 indices; the
      // index stream is hardware-prefetch-friendly in real kernels, so it
      // is modelled compact).  Data lines come from a per-sweep affine
      // bijection over the region — a *permutation*, not draws with
      // replacement, so reuse distance equals the region size and the
      // ring's miss curve is flat below it (no short-distance collisions
      // an LRU cache could exploit).
      const std::uint64_t step = rs.pos;
      if (++rs.pos >= 8 * rs.lines) {
        rs.pos = 0;
        ++rs.salt;  // Fresh gather permutation each full sweep.
        rs.reseed();
      }
      if ((step & 7) == 0) return rs.base_block + (step >> 3) % rs.idx_lines;
      return rs.base_block + ((step * rs.mul + rs.add) & rs.mask);
    }
    case RingKind::kHashJoin: {
      // Hash-join build/probe: each pass visits every bucket exactly once
      // in a salted pseudo-random order (odd multiplier => the affine map
      // is a bijection on the power-of-two bucket range).  Re-salting per
      // pass makes build and successive probe passes fresh orders while
      // keeping the reuse distance pinned at the table size: a flat miss
      // curve below the table, like real hash joins.
      const BlockAddr b = rs.base_block + ((rs.pos * rs.mul + rs.add) & rs.mask);
      if (++rs.pos >= rs.mask + 1) {
        rs.pos = 0;
        ++rs.salt;  // Next pass: a new build/probe order.
        rs.reseed();
      }
      return b;
    }
    case RingKind::kWalk: {
      // Graph traversal: a full-period LCG walk over node ids (a = 1 mod
      // 4, c odd => full period on the power-of-two range), scrambled by
      // an odd-multiplier bijection so successive nodes share no spatial
      // structure.  Every node is visited once per period: pointer chasing
      // with reuse distance = the graph size, flat below it.
      rs.pos = (rs.pos * 6364136223846793005ULL + 1442695040888963407ULL) & rs.mask;
      return rs.base_block + ((rs.pos * 0x9e3779b97f4a7c15ULL) & rs.mask);
    }
    case RingKind::kUniform:
    case RingKind::kLoop:
    case RingKind::kStream:
      break;  // Stepped inline by draw().
  }
  return rs.base_block;
}

inline BlockAddr TraceGen::draw(Rng& rng, const std::uint64_t* thresholds,
                                std::size_t n_thresholds, RingState* rings) {
  // Weighted ring choice: the raw 53-bit draw against the phase's
  // precomputed thresholds (ring_thresholds) — the same ring the scaled
  // double draw picked from the cumulative weight table.
  const std::uint64_t k = rng() >> 11;
  RingState& rs = rings[choose_ring(thresholds, n_thresholds, k)];
  switch (rs.kind) {
    case RingKind::kUniform:
      return rs.base_block + rng.below(rs.lines);
    case RingKind::kLoop:
    case RingKind::kStream: {
      const BlockAddr b = rs.base_block + rs.pos;
      // pos < lines always holds, so the wrap needs a compare, not a modulo
      // (this advance runs for every generated loop/stream access).
      if (++rs.pos == rs.lines) rs.pos = 0;
      return b;
    }
    default:
      return cold_step(rs);
  }
}

BlockAddr TraceGen::next() {
  if (cursor_.stream != nullptr) {
    BlockAddr b = 0;
    cursor_.stream->read(cursor_, &b, 1);
    return b;
  }
  PhaseState& st = states_[phase_idx_];
  return draw(rng_, st.thresholds.data(), st.thresholds.size(), st.rings.data());
}

void TraceGen::fill(BlockAddr* out, std::size_t n) {
  if (cursor_.stream != nullptr) {
    cursor_.stream->read(cursor_, out, n);
    return;
  }
  PhaseState& st = states_[phase_idx_];
  const std::uint64_t* const thresholds = st.thresholds.data();
  const std::size_t n_thresholds = st.thresholds.size();
  RingState* const rings = st.rings.data();
  // The RNG runs on a local copy, so its state stays in registers across
  // the batch instead of being stored back after every draw.  Draws land
  // in a small on-stack block that is copied out whole: a store through
  // `out` may alias the ring and threshold words, which the loop would
  // then reload after every draw, and a store to the local block cannot.
  Rng rng = rng_;
  constexpr std::size_t kBlock = 256;
  BlockAddr block[kBlock];
  for (std::size_t done = 0; done < n; done += kBlock) {
    const std::size_t m = std::min(kBlock, n - done);
    for (std::size_t i = 0; i < m; ++i)
      block[i] = draw(rng, thresholds, n_thresholds, rings);
    std::memcpy(out + done, block, m * sizeof(BlockAddr));
  }
  rng_ = rng;
}

}  // namespace delta::workload
