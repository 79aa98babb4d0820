// Tests for the high-level data-parallel patterns: parallel_for (with its
// reduce) and stencil_reduce.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "ff/parallel_for.hpp"
#include "ff/stencil_reduce.hpp"

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

TEST(ParallelFor, ReduceMatchesSerialSum) {
  ff::parallel_for pf(4);
  const std::int64_t n = 10000;
  const auto sum = pf.reduce(
      0, n, 0, std::int64_t{0}, [](std::int64_t i) { return i; },
      [](std::int64_t a, std::int64_t b) { return a + b; });
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

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

TEST(ParallelFor, ChunkVariantCoversRangeDisjointly) {
  ff::parallel_for pf(4);
  std::vector<std::atomic<int>> hits(500);
  pf.for_each_chunk(0, 500, 13, [&](std::int64_t lo, std::int64_t hi) {
    ASSERT_LT(lo, hi);
    for (std::int64_t i = lo; i < hi; ++i)
      hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(StencilReduce, JacobiHeatConverges) {
  // 1-D heat equation with fixed boundaries converges to a linear ramp.
  ff::parallel_for pf(2);
  const std::size_t n = 33;
  std::vector<double> a(n, 0.0), b(n, 0.0);
  a.front() = b.front() = 0.0;
  a.back() = b.back() = 1.0;

  auto [result, st] = ff::stencil_reduce(
      pf, std::span<double>(a), std::span<double>(b), 0.0,
      [](std::span<double> in, std::span<double> out, std::size_t i) {
        if (i == 0 || i + 1 == in.size()) {
          out[i] = in[i];
        } else {
          out[i] = 0.5 * (in[i - 1] + in[i + 1]);
        }
      },
      [](std::span<double> out, std::size_t i) {
        (void)out;
        (void)i;
        return 0.0;  // unused reduction
      },
      [](double x, double y) { return x + y; },
      [](double, std::uint64_t iter) { return iter < 4000; });

  EXPECT_EQ(st.iterations, 4000u);
  for (std::size_t i = 0; i < n; ++i) {
    const double expect = static_cast<double>(i) / static_cast<double>(n - 1);
    EXPECT_NEAR(result[i], expect, 1e-3) << "i=" << i;
  }
}

TEST(StencilReduce, ReductionDrivesTermination) {
  ff::parallel_for pf(2);
  std::vector<double> a(64, 1.0), b(64, 0.0);
  auto [result, st] = ff::stencil_reduce(
      pf, std::span<double>(a), std::span<double>(b), 0.0,
      [](std::span<double> in, std::span<double> out, std::size_t i) {
        out[i] = in[i] * 0.5;  // halve everything each sweep
      },
      [](std::span<double> out, std::size_t i) { return out[i]; },
      [](double x, double y) { return x + y; },
      [](double total, std::uint64_t) { return total > 1.0; });
  (void)result;
  // 64 -> 32 -> ... sum halves each sweep; stops once <= 1.0: 6 sweeps to
  // reach 1.0 (not > 1), so exactly 6 iterations.
  EXPECT_EQ(st.iterations, 6u);
}

}  // namespace
