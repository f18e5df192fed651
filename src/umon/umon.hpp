// UMON sampled shadow-tag array (Qureshi & Patt, MICRO'06), as adapted by
// DELTA (Sec. II-B3):
//
//  * dynamic set sampling — only 1 out of `set_dilution` cache sets carries
//    shadow tags, so monitored blocks are those whose set index falls on a
//    sampled set;
//  * per-way-position hit counters give the full miss curve at single-way
//    granularity (used by the farsighted centralized allocator);
//  * DELTA's *coarse-grained* UMON variant exposes hit counts only at 4-way
//    bucket granularity, which is all the pain/gain windows need — the tag
//    array is the same, only the counter array shrinks.
//
// Way granularity is the paper's 32 KB allocation unit (one way of one
// 512 KB/16-way bank), so a monitor with max_ways = 192 models capacities up
// to 6 MB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/simd.hpp"
#include "common/types.hpp"
#include "umon/miss_curve.hpp"

namespace delta::umon {

struct UmonConfig {
  int max_ways = 192;       ///< Largest allocation tracked, in 32 KB ways.
  int sets_log2 = 9;        ///< Sets per way-slice (512 sets of 64 B lines = 32 KB).
  int set_dilution = 16;    ///< Monitor 1 in N sets (dynamic set sampling).
  int coarse_ways = 4;      ///< Bucket width of the coarse counters.
  friend bool operator==(const UmonConfig&, const UmonConfig&) = default;

  /// Throws std::invalid_argument naming the first field out of range
  /// ("umon.max_ways = 0: must be in [1, 65536]").
  void validate() const;
};

class Umon {
 public:
  explicit Umon(UmonConfig cfg = {});

  /// Dynamic set sampling: the monitored sets are those whose index is a
  /// multiple of the dilution factor, and a monitored set's stack is its
  /// index / dilution.  A value, so a caller's loop (the access engine's
  /// stage loop) can copy it into locals.  Both tests are multiplies by
  /// precomputed constants, exact for every 32-bit set index and every
  /// dilution below 2^31, so every dilution, a power of two or not, takes
  /// the same path: set % d == 0 iff set * ceil(2^64 / d) (mod 2^64) is
  /// at most ceil(2^64 / d) - 1 (Lemire, Kaser and Kurz, "Faster
  /// remainder by direct computation", 2019; at d = 1 the constant wraps
  /// to 0 and every set passes), and set / d is the high bits of set *
  /// ceil(2^63 / d).
  struct Sampler {
    std::uint32_t set_mask;  ///< 2^sets_log2 - 1.
    std::uint64_t mod_magic; ///< ceil(2^64 / dilution), mod 2^64.
    std::uint64_t div_magic; ///< ceil(2^63 / dilution).
    std::uint32_t set_of(BlockAddr block) const {
      return static_cast<std::uint32_t>(block) & set_mask;
    }
    /// True for a monitored block.
    bool sampled(BlockAddr block) const {
      return std::uint64_t{set_of(block)} * mod_magic <= mod_magic - 1;
    }
    /// The stack a monitored block updates.
    std::uint32_t stack_of(BlockAddr block) const {
      return static_cast<std::uint32_t>(
          (static_cast<unsigned __int128>(div_magic) * set_of(block)) >> 63);
    }
  };
  const Sampler& sampler() const { return sampler_; }

  /// Feeds one LLC access (private-L2 miss) into the monitor.  The sampled
  /// set test is inline, so unmonitored blocks (the (dilution-1)/dilution
  /// majority) cost one test at the call site; only sampled blocks call
  /// out of line.  A sampled block whose stack tag (block >> sets_log2)
  /// does not fit 32 bits throws std::out_of_range before the monitor
  /// changes.
  void access(BlockAddr block) {
    if (sampler_.sampled(block)) access_sampled(sampler_.stack_of(block), block);
  }

  /// access() over blocks[0, n) in order, for a stream that holds only
  /// the blocks sampler() accepts (unsampled blocks leave the monitor
  /// unchanged, so dropping them first gives the same state).  The stack
  /// a few blocks ahead is prefetched while the current one is searched.
  void feed(const BlockAddr* blocks, std::size_t n);

  /// Scaled access/miss totals (sampled counts multiplied by dilution).
  double accesses() const { return scale(sampled_accesses_); }
  double misses_at_max() const { return scale(sampled_misses_); }
  std::uint64_t sampled_accesses() const { return sampled_accesses_; }

  /// Scaled hits with stack distance in [lo_ways, hi_ways) — i.e. the
  /// misses avoided by growing an allocation from lo to hi ways.  Uses the
  /// fine-grained counters.
  double hits_between(int lo_ways, int hi_ways) const;

  /// Same question answered from the coarse 4-way counters, with linear
  /// interpolation inside buckets — what DELTA's hardware actually sees.
  double coarse_hits_between(int lo_ways, int hi_ways) const;

  /// Full fine-grained miss curve (misses vs. ways, scaled).
  MissCurve miss_curve() const;

  /// Coarse-grained miss curve: exact at bucket boundaries, linearly
  /// interpolated inside buckets.
  MissCurve coarse_miss_curve() const;

  /// Exponential decay of all counters; invoked at reconfiguration
  /// boundaries so the monitor tracks phase changes.
  void decay(double keep_fraction = 0.5);

  void reset();

  int max_ways() const { return cfg_.max_ways; }
  const UmonConfig& config() const { return cfg_; }

  /// Storage cost of this monitor in bits (tags + counters), for the
  /// overhead analysis harness.
  std::uint64_t storage_bits() const;

 private:
  /// access() for a monitored block: the shadow-tag stack update.
  void access_sampled(std::uint32_t stack_idx, BlockAddr block);

  std::uint32_t* stack(std::uint32_t stack_idx) {
    return tags_.get() + static_cast<std::size_t>(stack_idx) * ways_;
  }
  const std::uint32_t* stack(std::uint32_t stack_idx) const {
    return tags_.get() + static_cast<std::size_t>(stack_idx) * ways_;
  }

  double scale(double x) const { return x * static_cast<double>(cfg_.set_dilution); }
  double scale(std::uint64_t x) const { return scale(static_cast<double>(x)); }

  UmonConfig cfg_;
  int num_stacks_ = 0;
  Sampler sampler_{};
  /// One LRU stack of 32-bit tags per monitored set, front = MRU: stack i
  /// is tags_[i * max_ways, i * max_ways + depth_[i]).  The tag is
  /// block >> sets_log2, exact because every block of one stack has the
  /// same set bits (set = stack index x dilution).  A linear scan is fine:
  /// only 1/set_dilution accesses reach a stack.
  std::size_t ways_ = 0;
  /// Left uninitialised: only [0, depth_[i]) of a stack is ever read, and
  /// depths start at 0 (64 monitors x 32 stacks x 768 tags per 64-tile
  /// chip would otherwise be zero-filled at construction).
  std::unique_ptr<std::uint32_t[]> tags_;
  std::vector<std::uint32_t> depth_;
  std::vector<double> hit_ctr_;         ///< Fine: hits at stack distance d.
  std::vector<double> coarse_ctr_;      ///< Coarse: hits per 4-way bucket.
  double sampled_misses_ = 0;
  std::uint64_t sampled_accesses_ = 0;
};

}  // namespace delta::umon
