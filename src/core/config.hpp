// Configuration knobs of the CWC simulation-analysis pipeline — the tuning
// surface the paper credits for performance portability ("a number of knobs
// supporting optimisation and performance tuning [at] the configuration
// level", §VI). The simulation engines advance in lane rounds
// (core/lane_executor.hpp) whose pool balances lanes dynamically: no caller
// needed a dispatch policy or queue capacity, so neither is a knob here.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cwc/sampling.hpp"

namespace cwcsim {

struct sim_config {
  // ---- workload ------------------------------------------------------
  std::uint64_t num_trajectories = 128;  ///< independent Monte Carlo instances
  double t_end = 100.0;                  ///< simulated horizon (model time)
  double sample_period = 0.5;            ///< observable sampling step (tau)
  /// Simulation-time slice per scheduling round. The paper's Table I varies
  /// the quantum/samples ratio Q/tau; quantum = ratio * sample_period.
  double quantum = 5.0;
  std::uint64_t seed = 0xC0FFEE;

  // ---- simulation pipeline --------------------------------------------
  /// Threads that step simulation engines: the lane-round pool of the
  /// multicore and gpu backends, and each sweep campaign's pool.
  unsigned sim_workers = 4;

  // ---- analysis pipeline ----------------------------------------------
  /// Statistical engines (paper: 1 or 4): the threads that summarise cuts
  /// beside the simulation, on every backend (core/analysis_stage.hpp).
  unsigned stat_engines = 1;
  std::size_t window_size = 16;  ///< cuts per sliding window
  std::size_t window_slide = 16; ///< cuts to advance between windows
  std::uint32_t kmeans_k = 2;    ///< clusters per cut (0 disables k-means)

  /// Number of sample points per trajectory (k = 0 .. num_samples-1).
  /// Tolerant of floating-point truncation: 30 / 0.1 landing at 299.999…
  /// still yields 301 points, matching what the engines emit.
  std::uint64_t num_samples() const noexcept {
    return cwc::num_sample_points(t_end, sample_period);
  }

  /// Field-by-field, doubles compared exactly (what a codec round trip
  /// must preserve).
  bool operator==(const sim_config&) const = default;
};

}  // namespace cwcsim
