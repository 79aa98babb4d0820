// The cwcsim::gpu backend driver: the CWC simulator with the farm of
// simulation engines replaced by ff_mapCUDA-style lockstep kernels on the
// SIMT device model (paper §IV-C). Results are bit-for-bit identical to the
// multicore simulator for the same configuration — the per-trajectory RNG
// streams make trajectories independent of where they execute — while the
// device clock reports modeled GPU time. Constructed via
// cwcsim::run_builder(...).backend(cwcsim::gpu{device, coherence, width}).
#pragma once

#include "core/backend.hpp"
#include "simt/device.hpp"

namespace simt {

class gpu_driver final : public cwcsim::backend_driver {
 public:
  /// Compiles the model and calibrates the lane-time cost model.
  /// batch_width > 1 advances SoA batches of that many lanes per kernel
  /// where the model is batchable (cwcsim::lane_executor); results are
  /// identical either way.
  gpu_driver(const cwcsim::model_ref& model, const cwcsim::sim_config& cfg,
             device_spec dev, double coherence_time,
             std::size_t batch_width = 0);

  const char* name() const noexcept override { return "gpu"; }

  /// Runs the campaign as a sequence of lockstep kernels, one quantum per
  /// kernel. Cuts are assembled between kernels and summarised by
  /// cfg.stat_engines workers beside them, so windows and retired
  /// trajectories stream through `sink` while later kernels execute;
  /// sink.stop_requested() is honoured at kernel boundaries.
  void run(cwcsim::event_sink& sink, cwcsim::run_report& report) override;

 private:
  cwcsim::model_ref model_;
  cwcsim::sim_config cfg_;
  device_spec dev_;
  double coherence_time_;
  std::size_t batch_width_;
  double ns_per_step_;  ///< calibration for lane-time accounting
};

}  // namespace simt
