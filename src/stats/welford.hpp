// Numerically stable streaming moments (Welford's algorithm) with the
// parallel-merge extension (Chan et al.), so per-worker partials combine
// exactly — the "mean/variance" statistical engines of the analysis farm.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace stats {

/// The raw accumulator state of a welford — trivially copyable so the
/// wire codecs (dist/wire.cpp) can ship summaries between processes
/// bit-exactly. mean/variance derive from (n, mean, m2) without rounding,
/// so a restored accumulator is indistinguishable from the original.
struct welford_state {
  std::uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

class welford {
 public:
  void add(double x) noexcept {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  /// Merge another accumulator (parallel combine).
  void merge(const welford& o) noexcept {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(o.n_);
    const double d = o.mean_ - mean_;
    const double n = na + nb;
    mean_ += d * nb / n;
    m2_ += o.m2_ + d * d * na * nb / n;
    n_ += o.n_;
    if (o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
  }

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }

  /// Population variance (n in the denominator); 0 for n < 1.
  double variance() const noexcept {
    return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
  }

  /// Sample variance (n-1); 0 for n < 2.
  double sample_variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }

  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

  /// Snapshot the exact accumulator state (for wire transfer).
  welford_state snapshot() const noexcept {
    return welford_state{n_, mean_, m2_, min_, max_};
  }

  /// Equal when every accumulator field is: the exactness the backends'
  /// window streams are held to.
  bool operator==(const welford&) const = default;

  /// Rebuild an accumulator bit-identical to the one snapshot() captured.
  static welford from_state(const welford_state& s) noexcept {
    welford w;
    w.n_ = s.n;
    w.mean_ = s.mean;
    w.m2_ = s.m2;
    w.min_ = s.min;
    w.max_ = s.max;
    return w;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace stats
