#include "stats/period.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stats {

std::vector<std::size_t> find_peaks(const std::vector<double>& y,
                                    double min_prominence) {
  std::vector<std::size_t> peaks;
  const std::size_t n = y.size();
  if (n < 3) return peaks;

  std::size_t i = 1;
  while (i + 1 < n) {
    if (y[i] > y[i - 1] && y[i] >= y[i + 1]) {
      // Plateau handling: extend right over equal values.
      std::size_t j = i;
      while (j + 1 < n && y[j + 1] == y[i]) ++j;
      if (j + 1 < n && y[j + 1] < y[i]) {
        // Prominence: drop to the nearest lower minima on both sides.
        double left_min = y[i];
        for (std::size_t l = i; l-- > 0;) {
          left_min = std::min(left_min, y[l]);
          if (y[l] > y[i]) break;
        }
        double right_min = y[i];
        for (std::size_t r = j + 1; r < n; ++r) {
          right_min = std::min(right_min, y[r]);
          if (y[r] > y[i]) break;
        }
        const double prom = y[i] - std::max(left_min, right_min);
        if (prom >= min_prominence) peaks.push_back(i);
      }
      i = j + 1;
    } else {
      ++i;
    }
  }
  return peaks;
}

std::vector<double> local_periods(const std::vector<double>& t,
                                  const std::vector<double>& y,
                                  double min_prominence) {
  util::expects(t.size() == y.size(), "local_periods: t/y length mismatch");
  const auto peaks = find_peaks(y, min_prominence);
  std::vector<double> periods;
  for (std::size_t k = 1; k < peaks.size(); ++k)
    periods.push_back(t[peaks[k]] - t[peaks[k - 1]]);
  return periods;
}

std::vector<double> moving_average(const std::vector<double>& x, std::size_t w) {
  util::expects(w > 0, "moving_average: window must be positive");
  std::vector<double> out(x.size(), 0.0);
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sum += x[i];
    if (i >= w) sum -= x[i - w];
    const std::size_t denom = std::min(i + 1, w);
    out[i] = sum / static_cast<double>(denom);
  }
  return out;
}

}  // namespace stats
