// Trajectory cuts and sliding windows — the data units flowing between the
// simulation and analysis pipelines (paper Fig. 2).
//
// A *cut* is "an array containing the results of all simulations at a given
// simulation time"; the alignment stage produces them in time order. The
// analysis pipeline groups consecutive cuts into *sliding windows* so that
// whole-dataset statistics can be approximated on-line.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "stats/kmeans.hpp"
#include "stats/welford.hpp"

namespace stats {

struct trajectory_cut {
  std::uint64_t sample_index = 0;  ///< k for sample time k * sample_period
  double time = 0.0;
  std::size_t dims = 0;  ///< observables per trajectory
  /// Row-major trajectories x dims matrix: values[t * dims + d] is
  /// observable d of trajectory t.
  std::vector<double> values;

  std::size_t trajectories() const noexcept {
    return dims == 0 ? 0 : values.size() / dims;
  }
};

/// Per-observable summary of one cut, computed by a statistical engine.
struct cut_summary {
  std::uint64_t sample_index = 0;
  double time = 0.0;
  std::vector<welford> moments;       ///< one accumulator per observable
  std::vector<double> medians;        ///< per-observable median
  kmeans_result clusters;             ///< k-means over full observable vectors

  bool operator==(const cut_summary&) const = default;
};

/// Compute the standard summary of a cut: per-observable moments + median,
/// and a k-means classification of trajectories (k=0 disables clustering).
/// Throws util::precondition_error when `values` is not a whole number of
/// `dims`-wide rows.
cut_summary summarize_cut(const trajectory_cut& cut, std::uint32_t kmeans_k = 2,
                          std::uint64_t seed = 0);

/// A window of consecutive cuts.
struct trajectory_window {
  std::uint64_t first_sample = 0;
  std::vector<trajectory_cut> cuts;
};

/// Groups an ordered stream of cuts into overlapping windows of `size`
/// cuts, advancing by `slide` cuts. push() returns a completed window when
/// one becomes full. flush() returns the final partial window, if any.
/// A cut is moved into the last window that needs it and copied into the
/// earlier ones, so copies happen only when slide < size.
class sliding_window_builder {
 public:
  sliding_window_builder(std::size_t size, std::size_t slide);

  /// Feed the next cut (must arrive in sample-index order).
  /// Returns a window when `cut` completes one.
  std::vector<trajectory_window> push(trajectory_cut cut);

  /// The trailing partial window (empty when the stream length was an
  /// exact multiple of the slide).
  std::vector<trajectory_window> flush();

 private:
  std::size_t size_;
  std::size_t slide_;
  std::deque<trajectory_cut> buffer_;  // the cuts [next_start_, last_index_]
  std::uint64_t next_start_ = 0;   // first sample index of the next window
  std::uint64_t last_index_ = 0;   // most recent sample index seen
  bool saw_any_ = false;
};

}  // namespace stats
