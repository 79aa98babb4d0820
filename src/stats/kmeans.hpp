// Lloyd's k-means with k-means++ seeding over small point sets — the
// "k-means" statistical engine of the analysis pipeline (paper Fig. 2).
// Applied per trajectory cut, it classifies trajectories into macroscopic
// states (e.g. the two Schlogl attractors or oscillation phases).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace stats {

struct kmeans_result {
  /// centroids[c] is a D-dimensional centre.
  std::vector<std::vector<double>> centroids;
  /// assignment[i] = cluster of point i.
  std::vector<std::uint32_t> assignment;
  /// points per cluster.
  std::vector<std::uint64_t> sizes;
  /// total within-cluster sum of squared distances.
  double inertia = 0.0;
  std::uint32_t iterations = 0;

  bool operator==(const kmeans_result&) const = default;
};

/// Cluster the row-major point matrix `points` (point i is
/// points[i * dim, (i + 1) * dim)) into k groups. Deterministic for a given
/// seed. k is clamped to the number of points. Throws
/// util::precondition_error when `points` is not a whole number of
/// `dim`-wide points.
kmeans_result kmeans(std::span<const double> points, std::size_t dim,
                     std::uint32_t k, std::uint64_t seed = 0,
                     std::uint32_t max_iterations = 64);

}  // namespace stats
