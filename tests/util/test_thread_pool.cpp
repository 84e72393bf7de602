#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/alloc_hook.hpp"

namespace capes::util {
namespace {

TEST(ThreadPool, DefaultSizeNonZero) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(4);
  int value = 0;
  pool.parallel_for(1, [&](std::size_t i) { value = static_cast<int>(i) + 5; });
  EXPECT_EQ(value, 5);
}

TEST(ThreadPool, ParallelForComputesCorrectSum) {
  ThreadPool pool(4);
  std::vector<long> out(5000);
  pool.parallel_for(out.size(), [&](std::size_t i) {
    out[i] = static_cast<long>(i) * 2;
  });
  const long sum = std::accumulate(out.begin(), out.end(), 0L);
  EXPECT_EQ(sum, 2L * 4999 * 5000 / 2);
}

TEST(ThreadPool, ParallelForRethrowsWorkerChunkException) {
  ThreadPool pool(3);
  // Only indices handled by worker chunks throw (the caller handles the
  // first chunk); the exception must surface at the synchronization
  // point instead of silently terminating a worker.
  EXPECT_THROW(pool.parallel_for(1000,
                                 [](std::size_t i) {
                                   if (i >= 900) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsCallerChunkException) {
  ThreadPool pool(3);
  // The caller's own chunk (index 0) throwing must not unwind past the
  // in-flight worker chunks — that left workers holding a dangling
  // reference to the body. Every *worker* chunk still completes (the
  // throw only aborts the caller's own chunk of 250); the exception
  // surfaces after the join.
  std::atomic<int> visited{0};
  EXPECT_THROW(pool.parallel_for(1000,
                                 [&](std::size_t i) {
                                   if (i == 0) throw std::runtime_error("early");
                                   visited.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(visited.load(), 750);  // 3 worker chunks of 250
}

TEST(ThreadPool, PoolUsableAfterParallelForException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100, [](std::size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForIsAllocationFreeOnceWarm) {
  if (!allocation_hook_active()) {
    GTEST_SKIP() << "counting allocator hook not linked in";
  }
  ThreadPool pool(3);
  std::vector<int> out(64);
  // A closure far past std::function's inline buffer: it used to be
  // copied to the heap on every call, plus a packaged_task per chunk.
  std::array<char, 256> pad{};
  const auto body = [&out, pad](std::size_t i) {
    out[i] = static_cast<int>(i) + pad[i % pad.size()];
  };
  pool.parallel_for(out.size(), body);
  AllocTally tally;
  for (int rep = 0; rep < 100; ++rep) pool.parallel_for(out.size(), body);
  EXPECT_EQ(tally.delta(), 0u);
  EXPECT_EQ(out[63], 63);
}

TEST(ThreadPool, ConcurrentParallelForCallersAllComplete) {
  ThreadPool pool(2);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kN = 300;
  constexpr int kReps = 50;
  std::vector<std::atomic<int>> hits(kCallers * kN);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      for (int rep = 0; rep < kReps; ++rep) {
        pool.parallel_for(kN, [&hits, c](std::size_t i) {
          hits[c * kN + i].fetch_add(1);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), kReps) << i;
  }
}

}  // namespace
}  // namespace capes::util
