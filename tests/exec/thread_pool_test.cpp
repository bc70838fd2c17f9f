// ThreadPool: partition correctness, reuse, degenerate cases, and the
// spin-then-park wake protocol (behaviour only, never timing).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/telemetry.hpp"

namespace grb {
namespace {

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(0, 10000, 16, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, NonzeroBegin) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel_for(100, 200, 8, [&](Index lo, Index hi) {
    long local = 0;
    for (Index i = lo; i < hi; ++i) local += static_cast<long>(i);
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  long want = 0;
  for (long i = 100; i < 200; ++i) want += i;
  EXPECT_EQ(sum.load(), want);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.nthreads(), 1);
  int calls = 0;
  pool.parallel_for(0, 100, 1, [&](Index lo, Index hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 100u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(5, 5, 1, [&](Index, Index) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SmallRangeStaysInline) {
  ThreadPool pool(4);
  // n <= grain runs on the caller (no fan-out).
  int calls = 0;
  pool.parallel_for(0, 10, 100, [&](Index, Index) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 1000, 8, [&](Index lo, Index hi) {
      count.fetch_add(static_cast<int>(hi - lo),
                      std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 1000);
  }
}

// Runs one fan-out job over [0, n) on `pool` and reports whether every
// index was visited exactly once.
bool covers_once(ThreadPool& pool, Index n) {
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, 1, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits)
    if (h.load(std::memory_order_relaxed) != 1) return false;
  return true;
}

uint64_t pool_parks() {
  uint64_t parks = 0;
  EXPECT_TRUE(obs::stats_get("pool.parks", &parks));
  return parks;
}

// An idle pool parks its workers once the spin window has passed rather
// than polling for ever, and a job submitted after that still wakes them.
TEST(ThreadPoolTest, IdlePoolParksAndStillWakes) {
  obs::stats_set_enabled(true);
  uint64_t parks_before_idle = 0;
  {
    ThreadPool pool(4);
    EXPECT_TRUE(covers_once(pool, 4096));
    std::this_thread::sleep_for(ThreadPool::kSpinWindow * 2000);
    // A park episode is counted when it ends, so the idle episode above
    // shows only after the next job or the shutdown wakes the workers.
    parks_before_idle = pool_parks();
    EXPECT_TRUE(covers_once(pool, 4096));
  }  // joined: every park episode has been counted
  EXPECT_GT(pool_parks(), parks_before_idle);
  obs::stats_set_enabled(false);
}

// Back-to-back tiny jobs keep workers inside the window; two callers on
// two pools (one per context) must never lose or repeat a chunk.
TEST(ThreadPoolTest, BackToBackTinyJobsOnTwoPools) {
  constexpr int kJobs = 2000;
  auto drive = [](std::atomic<int>* bad) {
    ThreadPool pool(4);
    for (int j = 0; j < kJobs; ++j)
      if (!covers_once(pool, 16 + j % 48))
        bad->fetch_add(1, std::memory_order_relaxed);
  };
  std::atomic<int> bad{0};
  std::thread a(drive, &bad);
  std::thread b(drive, &bad);
  a.join();
  b.join();
  EXPECT_EQ(bad.load(), 0);
}

// Destroying a pool right after a job, while its workers are still in
// the spin window, joins them cleanly.
TEST(ThreadPoolTest, DestroyWhileWorkersSpin) {
  for (int round = 0; round < 200; ++round) {
    ThreadPool pool(4);
    ASSERT_TRUE(covers_once(pool, 256)) << "round " << round;
  }
}

}  // namespace
}  // namespace grb
