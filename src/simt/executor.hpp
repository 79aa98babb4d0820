// Kernel-granularity SIMT scheduling model: the virtual device makespan of
// one ff_mapCUDA-style kernel whose lanes the host has already executed.
#pragma once

#include <cstdint>
#include <span>

#include "simt/device.hpp"

namespace simt {

struct kernel_stats {
  double device_seconds = 0.0;  ///< kernel makespan (launch included)
  double busy_lane_seconds = 0.0;
  double busy_warp_seconds = 0.0;  ///< warp-slot occupancy (divergence incl.)
  std::uint32_t warps = 0;
  std::uint32_t warp_size = 32;
  /// Divergence overhead in [1, warp_size]: how much longer warps run than
  /// they would if every lane finished simultaneously. 1.0 = no divergence.
  double divergence_factor() const noexcept {
    return busy_lane_seconds > 0.0
               ? busy_warp_seconds * warp_size / busy_lane_seconds
               : 1.0;
  }
};

/// Virtual makespan of one kernel whose per-lane execution times are given,
/// lanes packed into warps in index order, warps list-scheduled onto the
/// device's concurrent warp slots in order (no preemption) — CUDA block
/// scheduling at warp granularity.
///
/// `path_divergence` in [0,1] models intra-warp instruction-path
/// serialisation (SIMT lanes executing different rule sequences): a warp's
/// time interpolates between its slowest lane (0, lockstep) and the sum of
/// its lanes (1, fully serialised). For SSA kernels this grows with the
/// quantum length as lane phases decohere within the kernel (paper §V-C).
kernel_stats kernel_makespan(std::span<const double> lane_seconds,
                             const device_spec& dev,
                             double path_divergence = 0.0);

/// Simulated-time scale over which lanes' instruction paths decohere
/// (phase mixing of the oscillator ensemble).
inline constexpr double coherence_time = 25.0;

/// The path divergence of a kernel that advances every lane one quantum:
/// min(1, quantum / coherence_time). Fine quanta keep re-packed warps in
/// lockstep, long quanta serialise them (paper §V-C).
double path_divergence(double quantum);

}  // namespace simt
