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
        const auto a = x.moments[d].snapshot();
        const auto b = y.moments[d].snapshot();
        ASSERT_EQ(a.n, b.n);
        ASSERT_EQ(a.mean, b.mean);
        ASSERT_EQ(a.m2, b.m2);
        ASSERT_EQ(a.min, b.min);
        ASSERT_EQ(a.max, b.max);
      }
      ASSERT_EQ(x.medians, y.medians);
      ASSERT_EQ(x.clusters.centroids, y.clusters.centroids);
      ASSERT_EQ(x.clusters.assignment, y.clusters.assignment);
      ASSERT_EQ(x.clusters.sizes, y.clusters.sizes);
      ASSERT_EQ(x.clusters.inertia, y.clusters.inertia);
      ASSERT_EQ(x.clusters.iterations, y.clusters.iterations);
    }
  }
}

}  // namespace testing_windows
