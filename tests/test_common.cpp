#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/abort_flush.hpp"
#include "common/appendf.hpp"
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

TEST(Stats, MeanAndGeomean) {
  const std::vector<double> xs{1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0 / 3.0);
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
}

TEST(Stats, GeomeanOfEqualValues) {
  const std::vector<double> xs{3.0, 3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(geomean(xs), 3.0);
}

TEST(Stats, EmptyInputsAreZero) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(geomean({}), 0.0);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  const std::string s = t.str();
  EXPECT_NE(s.find("a   bbbb"), std::string::npos);
  EXPECT_NE(s.find("xx  y"), std::string::npos);
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

TEST(Appendf, LongLinesRoundTrip) {
  const std::string big(3000, 'x');
  std::string out = "head ";
  appendf(out, "%s|%d\n", big.c_str(), 42);
  EXPECT_EQ(out, "head " + big + "|42\n");
  appendf(out, "%s", "");
  EXPECT_EQ(out.size(), 5 + big.size() + 4);
}

// abort() flushes no stdio stream, so a report still sitting in a fully
// buffered stream reaches its file only through the installed drain.
TEST(AbortFlush, DrainsBufferedStdioOnAbort) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = std::string(::testing::TempDir()) + "/abort_flush.txt";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) std::exit(1);
        static char buf[4096];
        std::setvbuf(f, buf, _IOFBF, sizeof buf);
        std::fputs("written before the abort\n", f);
        install_abort_flush();
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "written before the abort");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace delta
