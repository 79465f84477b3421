// Tests for the fork-join ThreadPool (common/thread_pool.hpp): every task
// runs exactly once, and a throwing task neither strands the pool nor gets
// lost — the first exception reaches the caller after all tasks finished.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace now {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskOnce) {
  ThreadPool pool{3};
  std::vector<std::atomic<int>> runs(64);
  pool.parallel_for(runs.size(), [&](std::size_t i) { ++runs[i]; });
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPoolTest, TaskExceptionReachesCallerAfterAllTasksRan) {
  for (const std::size_t workers : {0u, 1u, 3u}) {
    ThreadPool pool{workers};
    std::atomic<int> finished{0};
    EXPECT_THROW(pool.parallel_for(8,
                                   [&](std::size_t i) {
                                     if (i == 5) {
                                       throw std::runtime_error("task 5");
                                     }
                                     ++finished;
                                   }),
                 std::runtime_error)
        << workers << " workers";
    if (workers > 0) {
      EXPECT_EQ(finished.load(), 7) << workers << " workers";
    }
    // The pool stays usable, and the old error does not resurface.
    std::atomic<int> again{0};
    pool.parallel_for(8, [&](std::size_t) { ++again; });
    EXPECT_EQ(again.load(), 8) << workers << " workers";
  }
}

}  // namespace
}  // namespace now
