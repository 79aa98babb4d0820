// GPU offload (paper §IV-C): run the CWC campaign as ff_mapCUDA-style
// lockstep kernels on the SIMT device model. Results are identical to the
// CPU pipeline; the device clock shows the effect of thread divergence and
// of the quantum knob (paper Table I).
//
//   ./gpu_offload [--trajectories 256] [--t-end 30] [--batch-width N]
//
// --batch-width N (N > 1) additionally drives the SoA batch trajectory
// engine end-to-end: the same campaign runs once with scalar lanes and
// once with N-lane lockstep batches, and the host-side throughput of both
// paths is reported as lanes/s (completed trajectories per wall-second).
// Results are bit-identical either way — batching is a scheduling detail.
#include <cstdio>

#include "core/cwcsim.hpp"
#include "models/models.hpp"
#include "simt/simt.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"

int main(int argc, char** argv) {
  const util::cli cli(argc, argv);

  const auto model = models::make_neurospora_cwc({});

  cwcsim::sim_config cfg;
  cfg.num_trajectories =
      static_cast<std::uint64_t>(cli.get_int("trajectories", 256));
  cfg.t_end = cli.get_double("t-end", 30.0);
  cfg.sample_period = 0.5;
  cfg.kmeans_k = 0;
  cfg.window_size = 8;
  cfg.window_slide = 8;
  const auto batch_width =
      static_cast<std::size_t>(cli.get_int("batch-width", 0));

  const auto dev = simt::devices::tesla_k40();
  std::printf("device: %s (warps of %u lanes, %u issuing at once)\n\n",
              dev.name.c_str(), dev.warp_size, dev.concurrent_warps);

  std::printf("%10s %10s %14s %14s %10s\n", "quantum", "kernels", "device time",
              "divergence", "mean M(T)");
  for (const double q : {0.5, 1.0, 2.5, 5.0, 10.0}) {
    cfg.quantum = q;
    // The unified facade: swap cwcsim::gpu{dev} for multicore{} or
    // distributed{...} and the same program runs there instead.
    const auto report = cwcsim::run(model, cfg, cwcsim::gpu{dev});
    const auto cuts = report.result.all_cuts();
    std::printf("%10.1f %10llu %12.3f s %13.2fx %10.1f\n", q,
                static_cast<unsigned long long>(report.device->kernels),
                report.device->device_seconds,
                report.device->divergence_factor,
                cuts.back().moments[0].mean());
  }
  std::printf(
      "\nThe mean column is constant: the quantum is a pure scheduling\n"
      "knob (trajectories keep deferred reactions across horizons), while\n"
      "device time varies with divergence and launch overhead.\n");

  if (batch_width > 1) {
    // Same campaign, scalar lanes vs SoA lockstep batches of --batch-width
    // lanes. The windows are bit-identical; only host throughput moves.
    cfg.quantum = 5.0;
    const auto lanes_per_s = [&](std::size_t width) {
      util::stopwatch sw;
      const auto report =
          cwcsim::run(model, cfg, cwcsim::gpu{dev, width});
      const double secs = sw.elapsed_s();
      return std::pair<double, double>(
          static_cast<double>(report.result.completions.size()) / secs, secs);
    };
    const auto [scalar_rate, scalar_s] = lanes_per_s(0);
    const auto [batch_rate, batch_s] = lanes_per_s(batch_width);
    std::printf(
        "\nbatch engine (width %zu) vs scalar lanes, %llu trajectories:\n"
        "  scalar: %8.0f lanes/s (%.3f s)\n"
        "  batch:  %8.0f lanes/s (%.3f s)  -> %.2fx\n",
        batch_width,
        static_cast<unsigned long long>(cfg.num_trajectories), scalar_rate,
        scalar_s, batch_rate, batch_s, batch_rate / scalar_rate);
  }
  return 0;
}
