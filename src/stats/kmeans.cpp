#include "stats/kmeans.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace stats {

namespace {

double sqdist(const double* a, const double* b, std::size_t dim) {
  double s = 0.0;
  for (std::size_t d = 0; d < dim; ++d) {
    const double diff = a[d] - b[d];
    s += diff * diff;
  }
  return s;
}

}  // namespace

kmeans_result kmeans(std::span<const double> points, std::size_t dim,
                     std::uint32_t k, std::uint64_t seed,
                     std::uint32_t max_iterations) {
  kmeans_result out;
  if (points.empty() || k == 0) return out;
  util::expects(dim > 0 && points.size() % dim == 0,
                "kmeans: point buffer is not a whole number of points");
  const std::size_t n = points.size() / dim;
  k = static_cast<std::uint32_t>(std::min<std::size_t>(k, n));
  const double* const pts = points.data();
  auto point = [&](std::size_t i) { return pts + i * dim; };

  util::rng_stream rng(seed, 0x5eedULL);

  // k-means++ seeding; centroids[c * dim + d] is coordinate d of centre c.
  std::vector<double> centroids;
  centroids.reserve(std::size_t{k} * dim);
  auto add_centroid = [&](std::size_t i) {
    centroids.insert(centroids.end(), point(i), point(i) + dim);
  };
  add_centroid(rng.next_below(n));
  std::vector<double> d2(n, 0.0);
  while (centroids.size() < std::size_t{k} * dim) {
    const std::size_t seeded = centroids.size() / dim;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < seeded; ++c)
        best = std::min(best, sqdist(point(i), &centroids[c * dim], dim));
      d2[i] = best;
      sum += best;
    }
    if (sum <= 0.0) {
      // All remaining points coincide with a centroid; duplicate one.
      add_centroid(rng.next_below(n));
      continue;
    }
    double target = rng.next_uniform_pos() * sum;
    std::size_t pick = n - 1;
    double cum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      cum += d2[i];
      if (cum >= target) {
        pick = i;
        break;
      }
    }
    add_centroid(pick);
  }

  std::vector<std::uint32_t> assign(n, 0);
  std::vector<std::uint64_t> sizes(k, 0);
  std::vector<double> sums(centroids.size(), 0.0);

  for (std::uint32_t iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(sizes.begin(), sizes.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const double* p = point(i);
      // Strict < keeps the lowest-numbered of equally near centres.
      double best = std::numeric_limits<double>::infinity();
      std::uint32_t arg = 0;
      for (std::uint32_t c = 0; c < k; ++c) {
        const double d = sqdist(p, &centroids[c * dim], dim);
        const bool nearer = d < best;
        best = nearer ? d : best;
        arg = nearer ? c : arg;
      }
      changed = changed || assign[i] != arg;
      assign[i] = arg;
      // The new centres' sums, accumulated in point order.
      ++sizes[arg];
      double* sum = &sums[arg * dim];
      for (std::size_t d = 0; d < dim; ++d) sum[d] += p[d];
    }
    out.iterations = iter + 1;

    // An empty cluster keeps its previous centre rather than falling to
    // the origin.
    for (std::uint32_t c = 0; c < k; ++c) {
      if (sizes[c] == 0) continue;
      for (std::size_t d = 0; d < dim; ++d)
        centroids[c * dim + d] =
            sums[c * dim + d] / static_cast<double>(sizes[c]);
    }
    if (!changed && iter > 0) break;
  }

  double inertia = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    inertia += sqdist(point(i), &centroids[assign[i] * dim], dim);

  out.centroids.resize(k);
  for (std::uint32_t c = 0; c < k; ++c)
    out.centroids[c].assign(centroids.begin() + c * dim,
                            centroids.begin() + (c + 1) * dim);
  out.assignment = std::move(assign);
  out.sizes = std::move(sizes);
  out.inertia = inertia;
  return out;
}

}  // namespace stats
