// Oscillation analysis: peak detection, per-oscillation period extraction
// and moving averages. This is the analysis the paper runs on the cloud
// (§V-B): "We compute the period of each oscillation and plot the moving
// average ... of the local period."
#pragma once

#include <cstddef>
#include <vector>

namespace stats {

/// Indices of local maxima of `y` that exceed `min_prominence` over the
/// higher of the two flanking minima. Plateaus report their first index.
std::vector<std::size_t> find_peaks(const std::vector<double>& y,
                                    double min_prominence = 0.0);

/// Per-oscillation local periods: differences between consecutive peak
/// times. `t` and `y` are parallel arrays.
std::vector<double> local_periods(const std::vector<double>& t,
                                  const std::vector<double>& y,
                                  double min_prominence = 0.0);

/// Centered-causal moving average with window `w` (output[i] averages the
/// last w values up to i; shorter prefixes average what is available).
std::vector<double> moving_average(const std::vector<double>& x, std::size_t w);

}  // namespace stats
