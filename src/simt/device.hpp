// SIMT device model. The paper offloads CWC simulation quanta to an NVidia
// Tesla K40 via FastFlow's ff_mapCUDA; this reproduction executes the same
// kernels on the CPU while accounting virtual device time under the SIMT
// execution model: threads are packed into warps, a warp advances at the
// pace of its slowest lane (thread divergence -> "load balancing and
// eventually performance degradation", paper §V-C), and warps share a
// bounded number of concurrently-issuing warp slots.
#pragma once

#include <string>

namespace simt {

struct device_spec {
  std::string name;
  unsigned warp_size = 32;
  /// Warps the device sustains concurrently at full throughput. Effective
  /// occupancy is far below cores/warp_size for register/local-memory-
  /// heavy kernels like tree-rewriting SSA steps (the per-instance CWC
  /// term lives in local memory): ~1-2 resident warps per SMX.
  unsigned concurrent_warps = 22;
  /// Per-lane slowdown of one SSA step relative to the calibration CPU
  /// core when the warp stays in lockstep; path divergence (see
  /// kernel_makespan) adds the serialisation cost on top.
  double step_slowdown = 1.5;
  /// Fixed launch + unified-memory sync cost per kernel (UM page
  /// migration of the instance working set is ~100s of microseconds).
  double kernel_launch_s = 300e-6;
  double unified_mem_bytes_s = 6e9;  ///< host<->device traffic bandwidth
};

namespace devices {

/// The paper's Table I device: Tesla K40, 2880 CUDA cores over 15 SMX.
inline device_spec tesla_k40() { return device_spec{"tesla-k40"}; }

/// A smaller laptop-class part for examples.
inline device_spec laptop_gpu() {
  device_spec d;
  d.name = "laptop-gpu";
  d.concurrent_warps = 6;
  d.step_slowdown = 2.5;
  return d;
}

}  // namespace devices
}  // namespace simt
