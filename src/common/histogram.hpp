// Log-bucket (power-of-two) histogram for wall-clock durations, whose value
// range spans many orders of magnitude (obs/prof metrics).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace delta {

/// Power-of-two-bucket histogram over the full uint64 range.  Bucket b holds
/// values whose bit width is b — bucket 0 is exactly {0}, bucket b >= 1 covers
/// [2^(b-1), 2^b).  Every bucket boundary is value-independent, so two
/// LogHistograms always merge exactly (bucket-wise addition) even when their
/// occupied ranges are disjoint — the property the metrics registry relies on
/// when folding per-thread duration histograms into one process-wide view.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void add(std::uint64_t v, std::uint64_t weight = 1) {
    counts_[static_cast<std::size_t>(std::bit_width(v))] += weight;
    total_ += weight;
    sum_ += v * weight;
  }

  std::uint64_t total() const { return total_; }
  std::uint64_t sum() const { return sum_; }
  double mean() const {
    return total_ ? static_cast<double>(sum_) / static_cast<double>(total_) : 0.0;
  }
  std::uint64_t count(std::size_t bucket) const { return counts_[bucket]; }

  /// Lowest value bucket `b` can hold: 0, 1, 2, 4, ..., 2^63.
  static std::uint64_t bucket_lo(std::size_t b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  /// Highest value bucket `b` can hold (inclusive).
  static std::uint64_t bucket_hi(std::size_t b) {
    if (b == 0) return 0;
    if (b >= 64) return UINT64_MAX;
    return (std::uint64_t{1} << b) - 1;
  }

  /// Upper bound of the first bucket at which at least `q` (0..1] of the
  /// mass has accumulated; 0 for an empty histogram.
  std::uint64_t quantile(double q) const {
    if (total_ == 0) return 0;
    const double target = q * static_cast<double>(total_);
    double cum = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      cum += static_cast<double>(counts_[b]);
      if (cum >= target) return bucket_hi(b);
    }
    return bucket_hi(kBuckets - 1);
  }

  void merge(const LogHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    total_ += other.total_;
    sum_ += other.sum_;
  }

  void reset() {
    counts_.fill(0);
    total_ = 0;
    sum_ = 0;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
};

}  // namespace delta
