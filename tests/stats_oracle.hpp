// Reference statistical engines over nested per-trajectory rows: the
// straightforward column-by-column summary and k-means that the flat
// row-major engines in src/stats must match bit for bit. Test-only; the
// library has one implementation of each.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats/cut.hpp"
#include "util/rng.hpp"

namespace oracle {

using rows = std::vector<std::vector<double>>;

inline double sqdist(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t d = 0; d < a.size(); ++d) {
    const double diff = a[d] - b[d];
    s += diff * diff;
  }
  return s;
}

/// Lloyd's k-means with k-means++ seeding; an empty cluster keeps its
/// previous centre.
inline stats::kmeans_result kmeans(const rows& points, std::uint32_t k,
                                   std::uint64_t seed,
                                   std::uint32_t max_iterations = 64) {
  stats::kmeans_result out;
  if (points.empty() || k == 0) return out;
  const std::size_t n = points.size();
  const std::size_t dim = points.front().size();
  k = static_cast<std::uint32_t>(std::min<std::size_t>(k, n));

  util::rng_stream rng(seed, 0x5eedULL);
  rows centroids;
  centroids.push_back(points[rng.next_below(n)]);
  std::vector<double> d2(n, 0.0);
  while (centroids.size() < k) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& c : centroids) best = std::min(best, sqdist(points[i], c));
      d2[i] = best;
      sum += best;
    }
    if (sum <= 0.0) {
      centroids.push_back(points[rng.next_below(n)]);
      continue;
    }
    const double target = rng.next_uniform_pos() * sum;
    std::size_t pick = n - 1;
    double cum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      cum += d2[i];
      if (cum >= target) {
        pick = i;
        break;
      }
    }
    centroids.push_back(points[pick]);
  }

  std::vector<std::uint32_t> assign(n, 0);
  std::vector<std::uint64_t> sizes(k, 0);
  for (std::uint32_t iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::uint32_t arg = 0;
      for (std::uint32_t c = 0; c < k; ++c) {
        const double d = sqdist(points[i], centroids[c]);
        if (d < best) {
          best = d;
          arg = c;
        }
      }
      if (assign[i] != arg) {
        assign[i] = arg;
        changed = true;
      }
    }
    out.iterations = iter + 1;

    rows sums(k, std::vector<double>(dim, 0.0));
    std::fill(sizes.begin(), sizes.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++sizes[assign[i]];
      for (std::size_t d = 0; d < dim; ++d) sums[assign[i]][d] += points[i][d];
    }
    for (std::uint32_t c = 0; c < k; ++c) {
      if (sizes[c] == 0) continue;
      for (std::size_t d = 0; d < dim; ++d)
        centroids[c][d] = sums[c][d] / static_cast<double>(sizes[c]);
    }
    if (!changed && iter > 0) break;
  }

  double inertia = 0.0;
  for (std::size_t i = 0; i < n; ++i) inertia += sqdist(points[i], centroids[assign[i]]);
  out.centroids = std::move(centroids);
  out.assignment = std::move(assign);
  out.sizes = std::move(sizes);
  out.inertia = inertia;
  return out;
}

/// Per-observable moments and upper medians, column by column, plus
/// k-means over the rows (k = 0 disables clustering).
inline stats::cut_summary summarize_cut(const rows& values,
                                        std::uint32_t kmeans_k,
                                        std::uint64_t seed) {
  stats::cut_summary s;
  if (values.empty()) return s;
  const std::size_t dims = values.front().size();
  s.moments.resize(dims);
  s.medians.resize(dims, 0.0);
  std::vector<double> scratch(values.size());
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      s.moments[d].add(values[i][d]);
      scratch[i] = values[i][d];
    }
    auto mid = scratch.begin() + static_cast<std::ptrdiff_t>(scratch.size() / 2);
    std::nth_element(scratch.begin(), mid, scratch.end());
    s.medians[d] = *mid;
  }
  if (kmeans_k > 0) s.clusters = kmeans(values, kmeans_k, seed);
  return s;
}

}  // namespace oracle
