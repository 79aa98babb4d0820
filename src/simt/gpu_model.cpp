#include "simt/gpu_model.hpp"

#include <algorithm>
#include <functional>

#include "des/engine.hpp"
#include "des/resource.hpp"
#include "util/check.hpp"

namespace simt {

gpu_outcome simulate_gpu(const des::workload& w, const des::calibration& cal,
                         const device_spec& dev, const des::host_spec& host,
                         const gpu_params& params) {
  des::engine eng;
  des::resource host_cpu(eng, host.cores);
  gpu_outcome out;
  des::analysis_model analysis(host_cpu, w, cal, host, params.stat_engines,
                               params.window_size, params.window_slide,
                               out.pipeline);

  const double lane_step_s = cal.sim_ns_per_step * 1e-9 * dev.step_slowdown;
  const std::uint64_t rounds = w.max_quanta_per_trajectory();
  std::vector<std::uint64_t> sample_cursor(w.num_trajectories, 0);
  // Cost predictor for warp re-packing: the previous quantum's step count.
  std::vector<std::uint64_t> prev_steps(w.num_trajectories, 0);

  double total_lane_s = 0.0;
  double total_warp_s = 0.0;

  std::function<void(std::uint64_t)> launch_kernel = [&](std::uint64_t q) {
    if (q >= rounds) return;

    // Live lanes this round. The paper's stream-level "load re-balancing
    // strategy after the computation of each quantum" re-segments instances
    // into warps; we model it by packing lanes sorted on predicted cost
    // (last quantum's steps), which groups similar lanes and suppresses
    // divergence — most effective at fine quanta where the predictor holds.
    std::vector<std::uint64_t> live;
    for (std::uint64_t i = 0; i < w.num_trajectories; ++i)
      if (q < w.quanta[i].size()) live.push_back(i);
    util::ensures(!live.empty(), "kernel round without live lanes");
    std::stable_sort(live.begin(), live.end(),
                     [&](std::uint64_t a, std::uint64_t b) {
                       return prev_steps[a] < prev_steps[b];
                     });

    std::vector<double> lanes;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> deliveries;  // traj, samples
    double bytes = 0.0;
    lanes.reserve(live.size());
    for (const std::uint64_t i : live) {
      const cwcsim::quantum_record& qw = w.quanta[i][q];
      lanes.push_back(static_cast<double>(qw.ssa_steps) * lane_step_s);
      deliveries.emplace_back(i, qw.samples);
      bytes += static_cast<double>(qw.samples) * w.sample_bytes();
      prev_steps[i] = qw.ssa_steps;
    }

    const kernel_stats ks =
        kernel_makespan(lanes, dev, path_divergence(w.quantum));
    const double mem_s =
        dev.unified_mem_bytes_s > 0 ? bytes / dev.unified_mem_bytes_s : 0.0;
    const double kernel_s = ks.device_seconds + mem_s;

    out.device_busy_s += kernel_s;
    total_lane_s += ks.busy_lane_seconds;
    total_warp_s += ks.busy_warp_seconds;
    ++out.kernels;

    eng.after(kernel_s, [&, q, deliveries = std::move(deliveries)] {
      // Kernel barrier passed: hand this round's samples to the host-side
      // alignment (runs on host cores, overlapping the next kernel).
      for (const auto& [traj, samples] : deliveries) {
        if (samples == 0) continue;
        const std::uint64_t first = sample_cursor[traj];
        sample_cursor[traj] += samples;
        host_cpu.submit(analysis.align_cost(samples),
                        [&analysis, first, samples = samples] {
                          analysis.deliver(first, samples);
                        });
      }
      launch_kernel(q + 1);
    });
  };

  launch_kernel(0);
  out.pipeline.makespan_s = eng.run();
  out.divergence_factor =
      total_lane_s > 0.0 ? total_warp_s * dev.warp_size / total_lane_s : 1.0;
  util::ensures(out.pipeline.cuts == w.num_samples, "GPU model lost cuts");
  return out;
}

}  // namespace simt
