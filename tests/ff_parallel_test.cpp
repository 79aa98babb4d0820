// Tests for the ff::parallel_for pool every lane round runs on: each index
// visited once, reuse across jobs, the caller-side `meanwhile` work and the
// transport of an exception from any participant to the caller.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ff/parallel_for.hpp"

namespace {

class parallel_for_param : public ::testing::TestWithParam<
                               std::tuple<unsigned, std::int64_t, std::int64_t>> {
};

TEST_P(parallel_for_param, EveryIndexVisitedOnce) {
  const auto [workers, n, grain] = GetParam();
  ff::parallel_for pf(workers);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  pf.for_each(0, n, grain, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::int64_t i = 0; i < n; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, parallel_for_param,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values<std::int64_t>(0, 1, 17, 1000),
                       ::testing::Values<std::int64_t>(0, 1, 7)));

TEST(ParallelFor, ReusableAcrossManyJobs) {
  ff::parallel_for pf(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    pf.for_each(0, 100, 0, [&](std::int64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 4950);
  }
}

/// Spin until `ready` holds; false after 10 s, so a broken pool fails
/// the test instead of hanging it.
template <typename Pred>
bool await(Pred ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ready()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// A full job after a failed one: every index once.
void expect_reusable(ff::parallel_for& pf) {
  std::atomic<std::int64_t> sum{0};
  pf.for_each(0, 100, 0, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ParallelFor, BodyThrowingOffTheCallingThreadRethrowsOnTheCaller) {
  ff::parallel_for pf(3);
  const auto caller = std::this_thread::get_id();
  for (int job = 0; job < 3; ++job) {
    std::atomic<bool> pool_ran{false};
    EXPECT_THROW(
        pf.for_each(0, 64, 1,
                    [&](std::int64_t) {
                      if (std::this_thread::get_id() == caller) {
                        // Leave chunks for the pool threads.
                        EXPECT_TRUE(await([&] { return pool_ran.load(); }));
                        return;
                      }
                      pool_ran = true;
                      throw std::runtime_error("pool thread");
                    }),
        std::runtime_error);
    EXPECT_TRUE(pool_ran.load());
    expect_reusable(pf);
  }
}

TEST(ParallelFor, BodyThrowingOnTheCallingThreadWaitsForRunningChunks) {
  ff::parallel_for pf(3);
  const auto caller = std::this_thread::get_id();
  for (int job = 0; job < 3; ++job) {
    std::atomic<int> in_body{0};
    std::atomic<bool> pool_entered{false};
    EXPECT_THROW(
        pf.for_each(0, 64, 1,
                    [&](std::int64_t) {
                      if (std::this_thread::get_id() == caller) {
                        // Throw while a pool thread is inside its chunk.
                        EXPECT_TRUE(await([&] { return pool_entered.load(); }));
                        throw std::runtime_error("calling thread");
                      }
                      ++in_body;
                      pool_entered = true;
                      std::this_thread::sleep_for(std::chrono::milliseconds(5));
                      --in_body;
                    }),
        std::runtime_error);
    // The job lived on the caller's stack: no chunk may outlive the call.
    EXPECT_EQ(in_body.load(), 0);
    expect_reusable(pf);
  }
}

TEST(ParallelFor, ThrowingCallerWorkStopsTheJobAndRethrows) {
  for (const unsigned workers : {1u, 3u}) {
    ff::parallel_for pf(workers);
    const auto caller = std::this_thread::get_id();
    std::atomic<int> in_body{0};
    std::atomic<int> on_caller{0};
    EXPECT_THROW(
        pf.for_each(
            0, 64, 1,
            [&](std::int64_t) {
              ++in_body;
              if (std::this_thread::get_id() == caller) ++on_caller;
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              --in_body;
            },
            [] { throw std::logic_error("caller work"); }),
        std::logic_error);
    EXPECT_EQ(in_body.load(), 0);
    // No chunk is handed out after the failure, the caller's included.
    EXPECT_EQ(on_caller.load(), 0);
    expect_reusable(pf);
  }
}

TEST(ParallelFor, CallerWorkRunsBesideThePoolBeforeTheCallerHelps) {
  // One worker: the caller alone, so its work comes first.
  {
    ff::parallel_for pf(1);
    std::vector<std::int64_t> order;
    pf.for_each(
        0, 3, 1, [&](std::int64_t i) { order.push_back(i); },
        [&] { order.push_back(-1); });
    EXPECT_EQ(order, (std::vector<std::int64_t>{-1, 0, 1, 2}));
  }
  // Three workers: the pool steps chunks while the caller's work runs.
  ff::parallel_for pf(3);
  std::atomic<std::int64_t> done{0};
  bool overlapped = false;
  pf.for_each(
      0, 64, 1, [&](std::int64_t) { ++done; },
      [&] { overlapped = await([&] { return done.load() > 0; }); });
  EXPECT_TRUE(overlapped);
  EXPECT_EQ(done.load(), 64);
  // An empty range still runs the caller's work.
  bool ran = false;
  pf.for_each(0, 0, 1, [](std::int64_t) {}, [&] { ran = true; });
  EXPECT_TRUE(ran);
}

}  // namespace
