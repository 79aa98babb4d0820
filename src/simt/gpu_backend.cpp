// The cwcsim::gpu backend: the CWC simulator with the farm of simulation
// engines replaced by ff_mapCUDA-style lockstep kernels on the SIMT device
// model (paper §IV-C). Results are bit-for-bit identical to the multicore
// simulator for the same configuration — the per-trajectory RNG streams
// make trajectories independent of where they execute — while the device
// clock reports modeled GPU time.
#include <algorithm>
#include <utility>
#include <vector>

#include "core/analysis_stage.hpp"
#include "core/backend.hpp"
#include "core/lane_executor.hpp"
#include "des/trace.hpp"
#include "simt/executor.hpp"
#include "util/stopwatch.hpp"

namespace simt {

namespace {

/// Runs the campaign as a sequence of lockstep kernels, one quantum per
/// kernel, each emulated as one lane round on the cfg.sim_workers pool.
/// While the pool runs kernel r + 1, the host assembles kernel r's cuts,
/// which cfg.stat_engines workers summarise beside both, and charges
/// kernel r to the device clock; windows and retired trajectories stream
/// through the sink while later kernels execute, and
/// sink.stop_requested() is honoured after each delivered kernel.
/// batch_width > 1 advances SoA batches of that many lanes per kernel
/// where the model is batchable (cwcsim::lane_executor); results are
/// identical either way.
class gpu_driver final : public cwcsim::backend_driver {
 public:
  /// Calibrates the lane-time cost model on the compiled model.
  gpu_driver(const cwcsim::model_ref& model, const cwcsim::sim_config& cfg,
             const cwcsim::gpu& b)
      : model_(model),
        cfg_(cfg),
        dev_(b.device),
        batch_width_(b.batch_width),
        ns_per_step_(des::measure_sim_ns_per_step(model_, cfg_)) {}

  const char* name() const noexcept override { return "gpu"; }

  void run(cwcsim::event_sink& sink, cwcsim::run_report& report) override;

 private:
  cwcsim::model_ref model_;
  cwcsim::sim_config cfg_;
  device_spec dev_;
  std::size_t batch_width_;
  double ns_per_step_;  ///< calibration for lane-time accounting
};

void gpu_driver::run(cwcsim::event_sink& sink, cwcsim::run_report& report) {
  util::stopwatch wall;
  report.device.emplace();
  cwcsim::run_report::device_stats& dev_stats = *report.device;

  // "Unified memory": engines live in host memory and are handed to the
  // device wholesale — no serialisation step, as the paper highlights. The
  // host emulates each kernel on the cfg.sim_workers pool; the device clock
  // is virtual, built from per-lane step counts, so it does not depend on
  // how many host threads ran the kernel.
  cwcsim::lane_executor lanes({model_.compiled}, cfg_,
                              cwcsim::lane_executor::ensemble(
                                  cfg_.num_trajectories),
                              batch_width_, cfg_.sim_workers);

  // On-line analysis beside the kernels: the host aligns each kernel's
  // samples and cfg.stat_engines workers summarise the released cuts while
  // later kernels execute — the same analysis stage as the other
  // backends, so the windowed statistics are bit-exact across deployments.
  cwcsim::analysis_stage analysis(cfg_, model_.num_observables(), sink,
                                  cfg_.stat_engines);

  double total_lane_s = 0.0;
  double total_warp_s = 0.0;
  // Warp re-packing predictor per trajectory: its last quantum's steps.
  std::vector<std::uint64_t> predicted(cfg_.num_trajectories, 0);
  // (predictor, lane virtual seconds) of every lane the kernel advanced.
  std::vector<std::pair<std::uint64_t, double>> packed;
  std::vector<double> lane_seconds;

  // One ff_mapCUDA offload per round: every live lane advances one
  // quantum; per-lane virtual time comes from the lane's step count.
  double bytes = 0.0;
  const auto on_samples = [&](const cwcsim::lane_executor::lane_quantum& q) {
    std::uint64_t& pred = predicted[q.id.trajectory_id];
    packed.emplace_back(pred, static_cast<double>(q.steps) * ns_per_step_ *
                                  1e-9 * dev_.step_slowdown);
    pred = q.steps;
    for (const auto& s : q.samples) {
      analysis.ingest(q.id.trajectory_id, s);
      bytes += static_cast<double>(s.values.size()) * 8.0 + 16.0;
    }
  };
  const auto on_done = [&](std::uint32_t, const cwcsim::task_done& d) {
    report.result.completions.push_back(d);
    sink.trajectory_done(d);
  };
  // Charges the kernel just delivered to the device clock.
  const auto kernel_done = [&] {
    // Stream-level re-balancing (paper §V-C): lanes with similar predicted
    // cost share warps. The sort is stable over lane order, so ties keep
    // trajectory-id order.
    std::stable_sort(packed.begin(), packed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    lane_seconds.clear();
    for (const auto& [pred, sec] : packed) lane_seconds.push_back(sec);
    const kernel_stats ks =
        kernel_makespan(lane_seconds, dev_, path_divergence(cfg_.quantum));

    const double mem_s =
        dev_.unified_mem_bytes_s > 0 ? bytes / dev_.unified_mem_bytes_s : 0.0;
    dev_stats.device_seconds += ks.device_seconds + mem_s;
    total_lane_s += ks.busy_lane_seconds;
    total_warp_s += ks.busy_warp_seconds;
    ++dev_stats.kernels;
    packed.clear();
    bytes = 0.0;
    return !sink.stop_requested();
  };
  if (!sink.stop_requested()) lanes.run(on_samples, on_done, kernel_done);

  analysis.finish();

  report.result.sim_workers = cfg_.sim_workers;
  report.result.stat_engines = cfg_.stat_engines;
  report.result.wall_seconds = wall.elapsed_s();
  dev_stats.divergence_factor =
      total_lane_s > 0.0 ? total_warp_s * dev_.warp_size / total_lane_s : 1.0;
}

}  // namespace

}  // namespace simt

namespace cwcsim::detail {

std::unique_ptr<backend_driver> make_gpu_driver(const model_ref& model,
                                                const sim_config& cfg,
                                                const gpu& b) {
  // run_builder::open() validated the descriptor and compiled the model.
  return std::make_unique<simt::gpu_driver>(model, cfg, b);
}

}  // namespace cwcsim::detail
