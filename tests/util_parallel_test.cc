#include "util/parallel.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"

namespace snor {
namespace {

TEST(ParallelForTest, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(500);
  for (auto& h : hits) h = 0;
  ParallelFor(500, [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ZeroAndSmallSizes) {
  ParallelFor(0, [](std::size_t) { FAIL(); }, 4);
  std::atomic<int> count{0};
  ParallelFor(5, [&](std::size_t) { ++count; }, 4);
  EXPECT_EQ(count.load(), 5);
}

TEST(ParallelForTest, MatchesSequentialResult) {
  std::vector<double> seq(200);
  std::vector<double> par(200);
  auto work = [](std::size_t i) {
    return std::sqrt(static_cast<double>(i) * 3.7 + 1.0);
  };
  for (std::size_t i = 0; i < seq.size(); ++i) seq[i] = work(i);
  ParallelFor(par.size(), [&](std::size_t i) { par[i] = work(i); }, 3);
  EXPECT_EQ(seq, par);
}

/// The set of threads that ran items, by `obs::CurrentThreadId()`: ids are
/// process-unique and never reused, unlike `std::thread::id`, so threads
/// created per call would show up as new ids.
class ThreadIdSet {
 public:
  void AddCurrent() {
    const int id = obs::CurrentThreadId();
    std::lock_guard<std::mutex> lock(mutex_);
    ids_.insert(id);
  }
  std::set<int> ids() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ids_;
  }

 private:
  mutable std::mutex mutex_;
  std::set<int> ids_;
};

TEST(ParallelForPoolTest, RepeatedCallsReuseThePoolThreads) {
  if (DefaultThreadCount() < 2) GTEST_SKIP() << "one hardware thread: inline";
  ThreadIdSet threads;
  for (int call = 0; call < 50; ++call) {
    ParallelFor(64, [&threads](std::size_t) { threads.AddCurrent(); }, 4);
  }
  const std::set<int> ids = threads.ids();
  EXPECT_LE(ids.size(), static_cast<std::size_t>(DefaultThreadCount()));
  EXPECT_EQ(ids.count(obs::CurrentThreadId()), 0u)
      << "the caller waits; only pool threads run items";
}

TEST(ParallelForPoolTest, NestedCallInsideWorkerRunsInline) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> moved{0};
  ParallelFor(
      kOuter,
      [&](std::size_t outer) {
        const int worker = obs::CurrentThreadId();
        ParallelFor(
            kInner,
            [&, outer, worker](std::size_t inner) {
              if (obs::CurrentThreadId() != worker) ++moved;
              ++hits[outer * kInner + inner];
            },
            4);
      },
      4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(moved.load(), 0) << "a nested call left its worker thread";
}

TEST(ParallelForPoolTest, SingleItemOrSingleThreadRunsOnCaller) {
  const int caller = obs::CurrentThreadId();
  std::atomic<int> ran{0};
  std::atomic<int> elsewhere{0};
  const auto probe = [&](std::size_t) {
    ++ran;
    if (obs::CurrentThreadId() != caller) ++elsewhere;
  };
  ParallelFor(1, probe, 4);
  ParallelFor(1, probe);
  ParallelFor(64, probe, 1);
  EXPECT_EQ(ran.load(), 66);
  EXPECT_EQ(elsewhere.load(), 0);
}

// A lone query's scan is four shard tasks. They must spread over the
// pool, not run one after another. Every task parks until a second task
// has started, so one thread cannot drain all four.
TEST(ParallelForPoolTest, FourTasksLandOnSeveralThreads) {
  if (DefaultThreadCount() < 2) GTEST_SKIP() << "one hardware thread: inline";
  ThreadIdSet threads;
  std::atomic<int> arrived{0};
  ParallelFor(
      4,
      [&](std::size_t) {
        threads.AddCurrent();
        arrived.fetch_add(1, std::memory_order_relaxed);
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (arrived.load(std::memory_order_relaxed) < 2 &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
      },
      4);
  EXPECT_GE(threads.ids().size(), 2u);
}

}  // namespace
}  // namespace snor
