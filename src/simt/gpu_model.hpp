// DES timing model of the GPU-offloaded CWC simulator (paper §IV-C, §V-C,
// Table I): every quantum round launches one kernel running all live
// trajectories in lockstep; "collection of outcomes for a simulation
// quantum could not start until all the instances have completed the
// quantum" (kernel atomicity), after which the host aligns and analyses
// while the next kernel runs.
#pragma once

#include "des/analysis_model.hpp"
#include "des/pipeline_model.hpp"
#include "des/platforms.hpp"
#include "des/trace.hpp"
#include "simt/device.hpp"
#include "simt/executor.hpp"

namespace simt {

struct gpu_params {
  unsigned stat_engines = 2;
  std::size_t window_size = 16;
  std::size_t window_slide = 16;
};

struct gpu_outcome {
  des::sim_outcome pipeline;     ///< makespan + analysis stats
  double device_busy_s = 0.0;    ///< sum of kernel durations
  double divergence_factor = 1;  ///< warp-seconds / lane-seconds (>= 1)
  std::uint64_t kernels = 0;
};

/// Replay the workload on a SIMT device attached to `host` (which runs
/// alignment + statistics concurrently with kernel execution).
gpu_outcome simulate_gpu(const des::workload& w, const des::calibration& cal,
                         const device_spec& dev, const des::host_spec& host,
                         const gpu_params& params);

}  // namespace simt
