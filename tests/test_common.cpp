#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include <cstdarg>
#include <string>

#include "common/appendf.hpp"
#include "common/histogram.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace delta {
namespace {

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(99);
  constexpr int kBuckets = 8;
  int counts[kBuckets] = {};
  constexpr int kSamples = 80'000;
  for (int i = 0; i < kSamples; ++i) ++counts[r.below(kBuckets)];
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000.0, 0.5, 0.02);
}

TEST(Splitmix, StableSequence) {
  std::uint64_t s = 42;
  const std::uint64_t first = splitmix64(s);
  std::uint64_t s2 = 42;
  EXPECT_EQ(first, splitmix64(s2));
  EXPECT_NE(splitmix64(s), first);
}

TEST(Stats, MeanGeomeanStd) {
  const std::vector<double> xs{1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0 / 3.0);
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
  // Sample stddev of {1,2,4}: mean 7/3, squared devs (16/9, 1/9, 25/9).
  EXPECT_NEAR(stddev(xs), std::sqrt((16.0 / 9 + 1.0 / 9 + 25.0 / 9) / 2.0), 1e-12);
}

TEST(Stats, GeomeanOfEqualValues) {
  const std::vector<double> xs{3.0, 3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(geomean(xs), 3.0);
}

TEST(Stats, EmptyInputsAreZero) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(geomean({}), 0.0);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, HarmonicMean) {
  EXPECT_NEAR(harmonic_mean(std::vector<double>{1.0, 2.0, 4.0}), 3.0 / 1.75, 1e-12);
}

TEST(RunningStat, MatchesBatch) {
  RunningStat rs;
  const std::vector<double> xs{1.5, 2.5, 0.5, 4.0, 3.0};
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 0.5);
  EXPECT_DOUBLE_EQ(rs.max(), 4.0);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  const std::string s = t.str();
  EXPECT_NE(s.find("a   bbbb"), std::string::npos);
  EXPECT_NE(s.find("xx  y"), std::string::npos);
}

TEST(Histogram, BasicCountsAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_NEAR(h.mean(), 5.0, 1e-9);
  EXPECT_EQ(h.count(3), 1u);
  h.add(-5.0);
  h.add(99.0);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
}

TEST(ParallelFor, CoversRangeOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; }, 4);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, PropagatesWorkerException) {
  // A throw on a worker thread must surface on the calling thread, not
  // std::terminate the process (regression: exceptions used to escape the
  // worker's thread entry point).
  EXPECT_THROW(
      parallel_for(
          0, 64,
          [](std::size_t i) {
            if (i == 13) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, PropagatesExceptionMessage) {
  try {
    parallel_for(
        0, 8, [](std::size_t) { throw std::runtime_error("worker died"); }, 3);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker died");
  }
}

TEST(ParallelFor, PropagatesExceptionFromSerialPath) {
  // threads <= 1 runs inline; the throw must pass through unchanged.
  EXPECT_THROW(
      parallel_for(
          0, 4, [](std::size_t) { throw std::logic_error("serial"); }, 1),
      std::logic_error);
}

TEST(ParallelFor, StopsSchedulingAfterFailure) {
  // After one worker throws, remaining iterations are skipped (best-effort
  // early stop) and every thread is still joined before the rethrow.
  std::atomic<int> ran{0};
  try {
    parallel_for(
        0, 100'000,
        [&](std::size_t i) {
          if (i == 0) throw std::runtime_error("first");
          ran.fetch_add(1, std::memory_order_relaxed);
        },
        4);
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(ran.load(), 100'000);
}

TEST(ParallelFor, NonExceptionalRunsAreUnaffectedByGuard) {
  // The failure guard must not drop iterations on the happy path.
  std::atomic<std::uint64_t> sum{0};
  parallel_for(1, 101, [&](std::size_t i) { sum.fetch_add(i); }, 4);
  EXPECT_EQ(sum.load(), 5050u);
}

TEST(Types, BlockAndPageHelpers) {
  EXPECT_EQ(block_of(0), 0u);
  EXPECT_EQ(block_of(63), 0u);
  EXPECT_EQ(block_of(64), 1u);
  EXPECT_EQ(addr_of_block(3), 192u);
  EXPECT_EQ(page_of(4095), 0u);
  EXPECT_EQ(page_of(4096), 1u);
  EXPECT_EQ(lines_in(kMiB), 16384u);
}

std::string format_record(LogLevel lvl, const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::string out = Logger::vformat(lvl, fmt, ap);
  va_end(ap);
  return out;
}

TEST(Logger, VformatComposesOneCompleteRecord) {
  EXPECT_EQ(format_record(LogLevel::kWarn, "bank %d lost %d ways", 3, 2),
            "[warn] bank 3 lost 2 ways\n");
  EXPECT_EQ(format_record(LogLevel::kError, "plain"), "[error] plain\n");
}

TEST(Logger, VformatTruncatesOverlongMessages) {
  const std::string big(4096, 'x');
  const std::string rec = format_record(LogLevel::kInfo, "%s", big.c_str());
  EXPECT_LT(rec.size(), 1100u);  // Bounded by the internal 1 KiB buffer.
  EXPECT_EQ(rec.substr(rec.size() - 4), "...\n");
  EXPECT_EQ(rec.substr(0, 7), "[info] ");
}

TEST(Appendf, LongLinesRoundTrip) {
  const std::string big(3000, 'x');
  std::string out = "head ";
  appendf(out, "%s|%d\n", big.c_str(), 42);
  EXPECT_EQ(out, "head " + big + "|42\n");
  appendf(out, "%s", "");
  EXPECT_EQ(out.size(), 5 + big.size() + 4);
}

TEST(Logger, LevelGate) {
  const LogLevel before = Logger::level();
  Logger::set_level(LogLevel::kWarn);
  EXPECT_TRUE(Logger::enabled(LogLevel::kError));
  EXPECT_TRUE(Logger::enabled(LogLevel::kWarn));
  EXPECT_FALSE(Logger::enabled(LogLevel::kInfo));
  EXPECT_FALSE(Logger::enabled(LogLevel::kDebug));
  Logger::set_level(before);
}

}  // namespace
}  // namespace delta
