// Tests for the on-line statistics library: Welford moments, P² quantiles,
// k-means, period detection, cuts and sliding windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "stats/stats.hpp"
#include "stats_oracle.hpp"
#include "util/rng.hpp"

namespace {

TEST(Welford, MatchesTwoPassOnRandomData) {
  util::rng_stream rng(1, 1);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = 10.0 + 3.0 * rng.next_normal();

  stats::welford w;
  for (double x : xs) w.add(x);

  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());

  EXPECT_NEAR(w.mean(), mean, 1e-9);
  EXPECT_NEAR(w.variance(), var, 1e-9);
  EXPECT_EQ(w.count(), xs.size());
  EXPECT_DOUBLE_EQ(w.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(w.max(), *std::max_element(xs.begin(), xs.end()));
}

TEST(Welford, MergeEqualsSequential) {
  util::rng_stream rng(2, 2);
  stats::welford all, a, b;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.next_normal() * (i % 7 + 1);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Welford, EmptyAndSingleton) {
  stats::welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  w.add(5.0);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.sample_variance(), 0.0);
}

class p2_param_test : public ::testing::TestWithParam<double> {};

TEST_P(p2_param_test, TracksQuantileOfNormalStream) {
  const double q = GetParam();
  util::rng_stream rng(3, 3);
  stats::p2_quantile est(q);
  std::vector<double> xs(20000);
  for (auto& x : xs) {
    x = rng.next_normal();
    est.add(x);
  }
  std::sort(xs.begin(), xs.end());
  const double exact = xs[static_cast<std::size_t>(q * (xs.size() - 1))];
  EXPECT_NEAR(est.value(), exact, 0.06) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Quantiles, p2_param_test,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9, 0.99));

TEST(P2Quantile, ExactForSmallSamples) {
  stats::p2_quantile est(0.5);
  est.add(3.0);
  est.add(1.0);
  est.add(2.0);
  EXPECT_DOUBLE_EQ(est.value(), 2.0);  // exact median of {1,2,3}
}

TEST(P2Quantile, RejectsDegenerateQuantile) {
  EXPECT_THROW(stats::p2_quantile(0.0), util::precondition_error);
  EXPECT_THROW(stats::p2_quantile(1.0), util::precondition_error);
}

TEST(Kmeans, SeparatesTwoObviousClusters) {
  std::vector<double> pts;
  util::rng_stream rng(4, 4);
  for (int i = 0; i < 50; ++i)
    pts.insert(pts.end(),
               {0.0 + rng.next_normal() * 0.1, 0.0 + rng.next_normal() * 0.1});
  for (int i = 0; i < 50; ++i)
    pts.insert(pts.end(),
               {10.0 + rng.next_normal() * 0.1, 10.0 + rng.next_normal() * 0.1});

  const auto res = stats::kmeans(pts, 2, 2, /*seed=*/9);
  ASSERT_EQ(res.centroids.size(), 2u);
  // One centroid near (0,0), the other near (10,10).
  const bool zero_first = res.centroids[0][0] < 5.0;
  const auto& lo = res.centroids[zero_first ? 0 : 1];
  const auto& hi = res.centroids[zero_first ? 1 : 0];
  EXPECT_NEAR(lo[0], 0.0, 0.5);
  EXPECT_NEAR(hi[0], 10.0, 0.5);
  EXPECT_EQ(res.sizes[0] + res.sizes[1], 100u);
  EXPECT_EQ(res.sizes[0], 50u);
  // Every point assigned to its generating cluster.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(res.assignment[i], res.assignment[0]);
  for (int i = 50; i < 100; ++i) EXPECT_EQ(res.assignment[i], res.assignment[50]);
}

TEST(Kmeans, DeterministicForSeed) {
  std::vector<double> pts;
  util::rng_stream rng(5, 5);
  for (int i = 0; i < 200; ++i)
    pts.insert(pts.end(), {rng.next_uniform() * 10, rng.next_uniform() * 10});
  const auto a = stats::kmeans(pts, 2, 3, 42);
  const auto b = stats::kmeans(pts, 2, 3, 42);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.inertia, b.inertia);
}

TEST(Kmeans, ClampsKAndHandlesEmpty) {
  EXPECT_TRUE(stats::kmeans({}, 1, 3).centroids.empty());
  std::vector<double> two = {1.0, 2.0};
  const auto res = stats::kmeans(two, 1, 5, 1);
  EXPECT_EQ(res.centroids.size(), 2u);
}

TEST(Kmeans, EmptyClusterKeepsItsCentre) {
  // Coincident points: seeding duplicates the centre and the strict < tie
  // rule leaves cluster 1 empty; it must stay where it was seeded.
  std::vector<double> pts;
  for (int i = 0; i < 8; ++i) pts.insert(pts.end(), {5.0, 7.0});
  const auto res = stats::kmeans(pts, 2, 2, 3);
  ASSERT_EQ(res.centroids.size(), 2u);
  EXPECT_EQ(res.centroids[0], (std::vector<double>{5.0, 7.0}));
  EXPECT_EQ(res.centroids[1], (std::vector<double>{5.0, 7.0}));
  EXPECT_EQ(res.sizes, (std::vector<std::uint64_t>{8, 0}));
  EXPECT_EQ(res.inertia, 0.0);
}

TEST(Kmeans, RejectsPartialPoint) {
  const std::vector<double> pts = {1.0, 2.0, 3.0};
  EXPECT_THROW(stats::kmeans(pts, 2, 2), util::precondition_error);
  EXPECT_THROW(stats::kmeans(pts, 0, 2), util::precondition_error);
}

TEST(Period, FindPeaksSimple) {
  std::vector<double> y = {0, 1, 0, 2, 0, 3, 0};
  const auto peaks = stats::find_peaks(y);
  EXPECT_EQ(peaks, (std::vector<std::size_t>{1, 3, 5}));
}

TEST(Period, ProminenceFiltersRipples) {
  std::vector<double> y = {0, 10, 9.8, 10.05, 0, 10, 0};
  const auto all = stats::find_peaks(y, 0.0);
  const auto strong = stats::find_peaks(y, 1.0);
  EXPECT_GT(all.size(), strong.size());
  ASSERT_EQ(strong.size(), 2u);
}

TEST(Period, LocalPeriodsOfSinusoid) {
  std::vector<double> t, y;
  const double period = 21.5;
  for (int i = 0; i < 2000; ++i) {
    t.push_back(i * 0.1);
    y.push_back(std::sin(2 * M_PI * t.back() / period));
  }
  const auto periods = stats::local_periods(t, y, 0.5);
  ASSERT_GE(periods.size(), 5u);
  for (double p : periods) EXPECT_NEAR(p, period, 0.2);
}

TEST(Period, MovingAverage) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  const auto ma = stats::moving_average(x, 3);
  ASSERT_EQ(ma.size(), 5u);
  EXPECT_DOUBLE_EQ(ma[0], 1.0);
  EXPECT_DOUBLE_EQ(ma[1], 1.5);
  EXPECT_DOUBLE_EQ(ma[2], 2.0);
  EXPECT_DOUBLE_EQ(ma[3], 3.0);
  EXPECT_DOUBLE_EQ(ma[4], 4.0);
}

TEST(Cut, SummarizeComputesMomentsMediansClusters) {
  stats::trajectory_cut cut;
  cut.sample_index = 3;
  cut.time = 1.5;
  cut.dims = 2;
  cut.values = {1.0, 100.0, 2.0, 200.0, 3.0, 300.0, 4.0, 400.0};
  const auto s = stats::summarize_cut(cut, 2, 7);
  ASSERT_EQ(s.moments.size(), 2u);
  EXPECT_DOUBLE_EQ(s.moments[0].mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.moments[1].mean(), 250.0);
  EXPECT_DOUBLE_EQ(s.medians[0], 3.0);  // upper median
  EXPECT_EQ(s.clusters.centroids.size(), 2u);
  EXPECT_EQ(s.sample_index, 3u);
}

TEST(Cut, SummarizeRejectsRaggedCut) {
  stats::trajectory_cut cut;
  cut.dims = 2;
  cut.values = {1.0, 2.0, 1.0};  // a 2-wide row and a 1-wide row
  EXPECT_THROW(stats::summarize_cut(cut, 0), util::precondition_error);
  cut.dims = 0;  // values with no row width
  EXPECT_THROW(stats::summarize_cut(cut, 0), util::precondition_error);
}

/// A random n x dims cut in both layouts. Rows hold small integer counts so
/// that ties are common, and every third row repeats an earlier one.
std::pair<stats::trajectory_cut, oracle::rows> random_cut(std::size_t n,
                                                          std::size_t dims,
                                                          std::uint64_t seed) {
  util::rng_stream rng(seed, n * 16 + dims);
  oracle::rows rows(n, std::vector<double>(dims, 0.0));
  for (std::size_t t = 0; t < n; ++t) {
    if (t > 0 && t % 3 == 0) {
      rows[t] = rows[rng.next_below(t)];
      continue;
    }
    for (auto& v : rows[t])
      v = static_cast<double>(rng.next_below(seed % 2 == 0 ? 4 : 400));
  }
  stats::trajectory_cut cut;
  cut.sample_index = seed;
  cut.time = 0.25 * static_cast<double>(seed);
  cut.dims = dims;
  for (const auto& r : rows) cut.values.insert(cut.values.end(), r.begin(), r.end());
  return {std::move(cut), std::move(rows)};
}

TEST(Cut, SummaryMatchesNestedOracleBitForBit) {
  for (const std::size_t n : {1, 2, 17, 1024})
    for (const std::size_t dims : {1, 3, 4})
      for (const std::uint32_t k : {0u, 1u, 2u, 5u})
        for (const std::uint64_t seed : {1, 2, 3}) {
          SCOPED_TRACE(testing::Message() << "n=" << n << " dims=" << dims
                                          << " k=" << k << " seed=" << seed);
          const auto [cut, rows] = random_cut(n, dims, seed);
          const auto got = stats::summarize_cut(cut, k, seed);
          const auto want = oracle::summarize_cut(rows, k, seed);
          EXPECT_EQ(got.sample_index, cut.sample_index);
          EXPECT_EQ(got.time, cut.time);
          ASSERT_EQ(got.moments.size(), want.moments.size());
          for (std::size_t d = 0; d < dims; ++d) {
            const auto g = got.moments[d].snapshot();
            const auto w = want.moments[d].snapshot();
            EXPECT_EQ(g.n, w.n);
            EXPECT_EQ(g.mean, w.mean);
            EXPECT_EQ(g.m2, w.m2);
            EXPECT_EQ(g.min, w.min);
            EXPECT_EQ(g.max, w.max);
          }
          EXPECT_EQ(got.medians, want.medians);
          EXPECT_EQ(got.clusters.centroids, want.clusters.centroids);
          EXPECT_EQ(got.clusters.assignment, want.clusters.assignment);
          EXPECT_EQ(got.clusters.sizes, want.clusters.sizes);
          EXPECT_EQ(got.clusters.inertia, want.clusters.inertia);
          EXPECT_EQ(got.clusters.iterations, want.clusters.iterations);
        }
}

struct window_case {
  std::size_t size;
  std::size_t slide;
  std::size_t n_cuts;
};

class window_param_test : public ::testing::TestWithParam<window_case> {};

TEST_P(window_param_test, WindowsTileTheStreamCorrectly) {
  const auto [size, slide, n] = GetParam();
  stats::sliding_window_builder b(size, slide);
  std::vector<stats::trajectory_window> windows;
  // A distinct payload per cut: a cut moved out while a later window still
  // needs it would reach that window empty.
  auto payload = [](std::size_t k) {
    return std::vector<double>{static_cast<double>(k), -static_cast<double>(k)};
  };
  for (std::size_t k = 0; k < n; ++k) {
    stats::trajectory_cut c;
    c.sample_index = k;
    c.time = static_cast<double>(k);
    c.dims = 1;
    c.values = payload(k);
    for (auto& w : b.push(std::move(c))) windows.push_back(std::move(w));
  }
  for (auto& w : b.flush()) windows.push_back(std::move(w));
  for (const auto& w : windows)
    for (const auto& c : w.cuts) {
      EXPECT_EQ(c.dims, 1u) << "cut " << c.sample_index;
      EXPECT_EQ(c.values, payload(c.sample_index)) << "cut " << c.sample_index;
    }

  // Full windows first: each starts at i*slide and has `size` consecutive cuts.
  std::size_t full = 0;
  for (const auto& w : windows) {
    if (w.cuts.size() == size) {
      EXPECT_EQ(w.first_sample, full * slide);
      for (std::size_t i = 0; i < w.cuts.size(); ++i)
        EXPECT_EQ(w.cuts[i].sample_index, w.first_sample + i);
      ++full;
    }
  }
  const std::size_t expect_full = n >= size ? (n - size) / slide + 1 : 0;
  EXPECT_EQ(full, expect_full);

  // Every cut index must appear in at least one window when slide <= size.
  std::vector<bool> covered(n, false);
  for (const auto& w : windows)
    for (const auto& c : w.cuts)
      if (c.sample_index < n) covered[c.sample_index] = true;
  for (std::size_t k = 0; k < n; ++k) EXPECT_TRUE(covered[k]) << "cut " << k;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, window_param_test,
    ::testing::Values(window_case{1, 1, 10}, window_case{4, 4, 16},
                      window_case{4, 4, 18}, window_case{8, 2, 40},
                      window_case{16, 1, 33}, window_case{5, 3, 22}));

TEST(Window, RejectsBadShapesAndGaps) {
  EXPECT_THROW(stats::sliding_window_builder(0, 1), util::precondition_error);
  EXPECT_THROW(stats::sliding_window_builder(4, 5), util::precondition_error);
  stats::sliding_window_builder b(2, 2);
  stats::trajectory_cut c0;
  c0.sample_index = 0;
  b.push(std::move(c0));
  stats::trajectory_cut c2;
  c2.sample_index = 2;  // gap!
  EXPECT_THROW(b.push(std::move(c2)), util::precondition_error);
}

}  // namespace
