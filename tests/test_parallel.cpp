#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace delta {
namespace {

TEST(StaticPartition, TilesTheRangeExactly) {
  for (std::size_t n : {0u, 1u, 3u, 7u, 16u, 65u}) {
    for (unsigned parts : {1u, 2u, 3u, 8u, 64u}) {
      std::size_t expect_begin = 0;
      for (unsigned p = 0; p < parts; ++p) {
        const IndexRange r = static_partition(n, parts, p);
        EXPECT_EQ(r.begin, expect_begin) << "n=" << n << " parts=" << parts;
        EXPECT_LE(r.begin, r.end);
        expect_begin = r.end;
      }
      EXPECT_EQ(expect_begin, n) << "n=" << n << " parts=" << parts;
    }
  }
}

TEST(StaticPartition, ZeroItemsGivesEveryWorkerAnEmptyRange) {
  for (unsigned p = 0; p < 8; ++p) {
    const IndexRange r = static_partition(0, 8, p);
    EXPECT_EQ(r.size(), 0u);
  }
}

TEST(StaticPartition, FewerItemsThanWorkers) {
  // 3 items over 8 workers: the first three get one each, the rest none.
  for (unsigned p = 0; p < 8; ++p) {
    const IndexRange r = static_partition(3, 8, p);
    EXPECT_EQ(r.size(), p < 3 ? 1u : 0u) << "part " << p;
  }
}

TEST(StaticPartition, ZeroPartsIsTreatedAsOne) {
  const IndexRange r = static_partition(5, 0, 0);
  EXPECT_EQ(r.begin, 0u);
  EXPECT_EQ(r.end, 5u);
}

TEST(CyclicBarrier, ReusableAcrossManyGenerations) {
  constexpr unsigned kParties = 4;
  constexpr int kRounds = 200;
  CyclicBarrier barrier(kParties);
  std::atomic<int> counter{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kParties; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        counter.fetch_add(1, std::memory_order_relaxed);
        barrier.arrive_and_wait();
        // Inside generation r every thread must see all kParties arrivals
        // of this round (and none of round r+1 beyond what raced ahead
        // after release — hence a second barrier before re-checking).
        if (counter.load(std::memory_order_relaxed) < (r + 1) * static_cast<int>(kParties))
          mismatches.fetch_add(1, std::memory_order_relaxed);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(counter.load(), kRounds * static_cast<int>(kParties));
}

TEST(WorkerPool, RunsEveryPartyExactlyOncePerSection) {
  WorkerPool pool(4);
  ASSERT_EQ(pool.parties(), 4u);
  std::vector<int> hits(4, 0);
  for (int section = 0; section < 50; ++section)
    pool.run([&](unsigned w) { ++hits[w]; });
  for (int h : hits) EXPECT_EQ(h, 50);
}

TEST(WorkerPool, ExceptionsRethrowInWorkerIndexOrder) {
  WorkerPool pool(4);
  // Workers 2 and 3 throw; the pool must surface worker 2's exception (the
  // lowest-index failure), independent of completion order.
  try {
    pool.run([](unsigned w) {
      if (w >= 2) throw std::runtime_error("worker " + std::to_string(w));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 2");
  }
  // Error slots are cleared: the pool stays usable and a clean section
  // throws nothing.
  std::atomic<int> ran{0};
  pool.run([&](unsigned) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), 4);
}

TEST(WorkerPool, SinglePartyPropagatesInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.parties(), 1u);
  EXPECT_THROW(pool.run([](unsigned) { throw std::logic_error("solo"); }),
               std::logic_error);
}

TEST(ClaimSet, EachIndexClaimedExactlyOnceUnderContention) {
  constexpr std::size_t kItems = 1000;
  constexpr unsigned kParts = 4;
  ClaimSet claims(kItems);
  std::atomic<bool> failed{false};
  for (int round = 0; round < 20; ++round) {
    claims.reset();
    std::vector<std::atomic<int>> runs(kItems);
    std::vector<ClaimSet::Counts> counts(kParts);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kParts; ++t)
      threads.emplace_back([&, t] {
        counts[t] = claims.run(kParts, t, failed, [&](std::size_t i) { ++runs[i]; });
      });
    for (auto& th : threads) th.join();
    for (std::size_t i = 0; i < kItems; ++i)
      ASSERT_EQ(runs[i].load(), 1) << "index " << i << " round " << round;
    ClaimSet::Counts total;
    for (const ClaimSet::Counts& c : counts) total += c;
    EXPECT_EQ(total.tasks, kItems);
  }
}

TEST(ClaimSet, HomeRangeFirstThenAscendingSteals) {
  // With no contention one worker claims its static home range in order,
  // then steals every other index in ascending order.
  constexpr std::size_t kItems = 10;
  ClaimSet claims(kItems);
  std::atomic<bool> failed{false};
  std::vector<std::size_t> order;
  const ClaimSet::Counts c =
      claims.run(3, 1, failed, [&](std::size_t i) { order.push_back(i); });
  const IndexRange home = static_partition(kItems, 3, 1);  // [4, 7)
  std::vector<std::size_t> expect;
  for (std::size_t i = home.begin; i < home.end; ++i) expect.push_back(i);
  for (std::size_t i = 0; i < kItems; ++i)
    if (i < home.begin || i >= home.end) expect.push_back(i);
  EXPECT_EQ(order, expect);
  EXPECT_EQ(c.tasks, kItems);
  EXPECT_EQ(c.stolen, kItems - home.size());
  // Everything is claimed now: a second pass runs nothing until reset().
  EXPECT_EQ(claims.run(3, 0, failed, [](std::size_t) {}).tasks, 0u);
  claims.reset();
  EXPECT_EQ(claims.run(3, 0, failed, [](std::size_t) {}).tasks, kItems);
}

TEST(ClaimSet, ThrowSetsFailedAndStopsFurtherClaims) {
  ClaimSet claims(8);
  std::atomic<bool> failed{false};
  EXPECT_THROW(claims.run(1, 0, failed,
                          [](std::size_t i) {
                            if (i == 2) throw std::runtime_error("task 2");
                          }),
               std::runtime_error);
  EXPECT_TRUE(failed.load());
  // Once failed is set no worker claims anything more.
  int ran = 0;
  EXPECT_EQ(claims.run(2, 1, failed, [&](std::size_t) { ++ran; }).tasks, 0u);
  EXPECT_EQ(ran, 0);
}

TEST(ParallelFor, IdleWorkersClaimTheRestWhileOneIndexRuns) {
  // Index 0 blocks until every other index has run.  With workers claiming
  // from one shared counter, the second worker drains indices 1..5 while
  // the first waits; a static round-robin split would leave 2 and 4 queued
  // behind the blocked index 0 on its own thread, and the wait would time
  // out.
  constexpr std::size_t kN = 6;
  std::atomic<std::size_t> others_done{0};
  bool saw_all = false;
  parallel_for(
      0, kN,
      [&](std::size_t i) {
        if (i != 0) {
          others_done.fetch_add(1, std::memory_order_release);
          return;
        }
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (others_done.load(std::memory_order_acquire) < kN - 1 &&
               std::chrono::steady_clock::now() < deadline)
          std::this_thread::yield();
        saw_all = others_done.load(std::memory_order_acquire) == kN - 1;
      },
      /*threads=*/2);
  EXPECT_TRUE(saw_all) << "index 0 timed out with " << others_done.load()
                       << " of " << kN - 1 << " other indices run";
}

TEST(ResolveWorkers, AutoIsHardwareThreadsExplicitPassesAllClampToCap) {
  const unsigned hw = hardware_threads();
  EXPECT_EQ(resolve_workers(0, 1u << 20), hw);
  EXPECT_EQ(resolve_workers(-3, 1u << 20), hw);  // Negative is auto too.
  // Explicit counts may oversubscribe (test_intra runs 8 jobs on small
  // hosts) but never exceed the work items.
  EXPECT_EQ(resolve_workers(64, 1u << 20), 64u);
  EXPECT_EQ(resolve_workers(8, 4), 4u);
  EXPECT_EQ(resolve_workers(0, 1), 1u);
  EXPECT_EQ(resolve_workers(5, 0), 1u);
}

}  // namespace
}  // namespace delta
