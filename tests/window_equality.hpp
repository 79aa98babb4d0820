// The one window comparator of the test suites: two window streams are
// equal only when every field of every cut summary is — window and sample
// indices, cut times, each observable's full Welford state (count, mean,
// M2, min, max), the medians and the whole k-means result. Doubles compare
// with ==, never with a ULP tolerance: the backends promise bit-identical
// windows, so any difference is a divergence to fix.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "core/messages.hpp"

namespace testing_windows {

/// One observable's Welford state, field by field.
inline void expect_same_moments(const stats::welford& x, const stats::welford& y) {
  const auto a = x.snapshot();
  const auto b = y.snapshot();
  ASSERT_EQ(a.n, b.n);
  ASSERT_EQ(a.mean, b.mean);
  ASSERT_EQ(a.m2, b.m2);
  ASSERT_EQ(a.min, b.min);
  ASSERT_EQ(a.max, b.max);
}

/// One cut's k-means result, field by field.
inline void expect_same_clusters(const stats::kmeans_result& x,
                                 const stats::kmeans_result& y) {
  ASSERT_EQ(x.centroids, y.centroids);
  ASSERT_EQ(x.assignment, y.assignment);
  ASSERT_EQ(x.sizes, y.sizes);
  ASSERT_EQ(x.inertia, y.inertia);
  ASSERT_EQ(x.iterations, y.iterations);
}

inline void expect_bit_identical(const std::vector<cwcsim::window_summary>& got,
                                 const std::vector<cwcsim::window_summary>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "window " << i);
    ASSERT_EQ(got[i].first_sample, want[i].first_sample);
    ASSERT_EQ(got[i].cuts.size(), want[i].cuts.size());
    for (std::size_t c = 0; c < got[i].cuts.size(); ++c) {
      SCOPED_TRACE(::testing::Message() << "cut " << c);
      const auto& x = got[i].cuts[c];
      const auto& y = want[i].cuts[c];
      ASSERT_EQ(x.sample_index, y.sample_index);
      ASSERT_EQ(x.time, y.time);
      ASSERT_EQ(x.moments.size(), y.moments.size());
      for (std::size_t d = 0; d < x.moments.size(); ++d) {
        SCOPED_TRACE(::testing::Message() << "observable " << d);
        ASSERT_NO_FATAL_FAILURE(expect_same_moments(x.moments[d], y.moments[d]));
      }
      ASSERT_EQ(x.medians, y.medians);
      ASSERT_NO_FATAL_FAILURE(expect_same_clusters(x.clusters, y.clusters));
    }
  }
}

}  // namespace testing_windows
