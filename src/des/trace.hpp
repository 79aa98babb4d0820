// Workload capture and machine calibration.
//
// The DES platform models do not invent service times: capture_workload()
// runs the *real* CWC engine sequentially (deterministic — work is counted
// in SSA steps, a pure function of (model, seed, trajectory id)), recording
// every quantum's step count and sample count. calibrate() measures, on the
// host machine, the nanoseconds one SSA step and one statistics point
// actually cost. Platform models combine the two and add only scheduling,
// communication, and platform-speed effects.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cwcsim.hpp"

namespace des {

/// The complete per-quantum work profile of one simulation campaign.
struct workload {
  std::uint64_t num_trajectories = 0;
  std::uint64_t num_samples = 0;  ///< sample points (cuts) per trajectory
  std::size_t observables = 0;
  double t_end = 0.0;
  double sample_period = 0.0;
  double quantum = 0.0;

  /// quanta[i] = ordered quanta of trajectory i: SSA steps and samples.
  std::vector<std::vector<cwcsim::quantum_record>> quanta;

  /// Serialized size of one trajectory sample: 8 bytes per observable and
  /// 16 of framing, what the live gpu backend charges per sample.
  double sample_bytes() const noexcept {
    return 8.0 * static_cast<double>(observables) + 16.0;
  }

  std::uint64_t total_steps() const noexcept;
  std::uint64_t total_quanta() const noexcept;
  std::uint64_t max_quanta_per_trajectory() const noexcept;

  /// Restrict to the first `n` trajectories. Valid because trajectory i's
  /// sample path is a pure function of (model, seed, i) — a 2048-trajectory
  /// capture contains the 128-trajectory campaign as a prefix.
  workload slice(std::uint64_t n) const;

  /// Merge groups of `factor` consecutive quanta into one (equivalent to
  /// capturing with quantum *= factor — sample paths are independent of the
  /// quantum, so the step/sample totals re-bin exactly).
  workload rebin(std::uint64_t factor) const;
};

/// Execute the campaign sequentially with the real engine, recording the
/// work profile. Deterministic in (model, cfg.seed).
workload capture_workload(const cwcsim::model_ref& model,
                          const cwcsim::sim_config& cfg);

/// Measured unit costs on the machine running this process.
struct calibration {
  double sim_ns_per_step = 250.0;   ///< CWC engine cost per SSA step
  double stat_ns_per_point = 40.0;  ///< summarize_cut cost per traj x obs
  double align_ns_per_sample = 150.0;
};

/// Measure the engine's cost per SSA step by timing a few short runs of the
/// real engine; the calibration default when those runs take too few steps
/// to time.
double measure_sim_ns_per_step(const cwcsim::model_ref& model,
                               const cwcsim::sim_config& cfg);

/// Measure unit costs by timing short runs of the real engine and the real
/// statistics kernel on representative data.
calibration calibrate(const cwcsim::model_ref& model,
                      const cwcsim::sim_config& cfg);

}  // namespace des
