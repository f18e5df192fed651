// Edge-case coverage for common/histogram.hpp: the power-of-two LogHistogram
// the prof metrics registry aggregates with (bucket boundaries, the top
// bucket, exact merge of disjoint ranges).
#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace delta {
namespace {

TEST(LogHistogram, EmptyState) {
  const LogHistogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0u);
}

TEST(LogHistogram, SingleSample) {
  LogHistogram h;
  h.add(1000);  // bit_width(1000) == 10: bucket [512, 1024).
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.sum(), 1000u);
  EXPECT_EQ(h.count(10), 1u);
  EXPECT_EQ(h.quantile(0.5), 1023u);
}

TEST(LogHistogram, BucketBoundaries) {
  // Bucket 0 is exactly {0}; bucket b >= 1 covers [2^(b-1), 2^b).
  EXPECT_EQ(LogHistogram::bucket_lo(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_hi(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_lo(1), 1u);
  EXPECT_EQ(LogHistogram::bucket_hi(1), 1u);
  EXPECT_EQ(LogHistogram::bucket_lo(4), 8u);
  EXPECT_EQ(LogHistogram::bucket_hi(4), 15u);
  EXPECT_EQ(LogHistogram::bucket_lo(64), std::uint64_t{1} << 63);
  EXPECT_EQ(LogHistogram::bucket_hi(64), UINT64_MAX);

  LogHistogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  EXPECT_EQ(h.count(0), 1u);  // {0}
  EXPECT_EQ(h.count(1), 1u);  // {1}
  EXPECT_EQ(h.count(2), 2u);  // {2, 3}
  EXPECT_EQ(h.count(3), 1u);  // {4..7}
}

TEST(LogHistogram, TopBucketHoldsMaxValues) {
  LogHistogram h;
  h.add(UINT64_MAX);
  h.add(std::uint64_t{1} << 63);
  EXPECT_EQ(h.count(64), 2u);
  EXPECT_EQ(h.quantile(1.0), UINT64_MAX);
}

TEST(LogHistogram, MergeOfDisjointRangesIsExact) {
  // The value-independent bucket boundaries make merging exact even when
  // the occupied ranges are disjoint — the property the metrics registry
  // relies on when folding per-thread duration histograms.
  LogHistogram fast, slow, direct;
  for (std::uint64_t v : {3u, 5u, 7u}) {
    fast.add(v);
    direct.add(v);
  }
  for (std::uint64_t v : {100'000u, 200'000u}) {
    slow.add(v);
    direct.add(v);
  }
  fast.merge(slow);
  EXPECT_EQ(fast.total(), direct.total());
  EXPECT_EQ(fast.sum(), direct.sum());
  for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b)
    EXPECT_EQ(fast.count(b), direct.count(b)) << "bucket " << b;
  EXPECT_EQ(fast.quantile(0.5), direct.quantile(0.5));
}

TEST(LogHistogram, WeightsAndQuantiles) {
  LogHistogram h;
  h.add(10, 90);   // bucket 4: [8, 15]
  h.add(1000, 10); // bucket 10: [512, 1023]
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.quantile(0.5), 15u);
  EXPECT_EQ(h.quantile(0.90), 15u);
  EXPECT_EQ(h.quantile(0.95), 1023u);
  EXPECT_DOUBLE_EQ(h.mean(), (10.0 * 90 + 1000.0 * 10) / 100.0);
}

TEST(LogHistogram, ResetClears) {
  LogHistogram h;
  h.add(42, 7);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.count(6), 0u);
}

}  // namespace
}  // namespace delta
