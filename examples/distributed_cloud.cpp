// The distributed/cloud deployment (paper §IV-B): a virtual cluster of
// multicore hosts, each running a farm of simulation engines, streaming
// serialized results to a master that aligns and analyses on-line. Runs
// the campaign twice, on a healthy cluster and on a degraded one (host 0
// at quarter speed, the last host killed mid-run), checks that both give
// windows identical in every field to the shared-memory run, and reports
// the network traffic; then models the same campaign on the paper's EC2
// setup with the DES performance models. Exits 1 if either distributed
// run diverges from the shared-memory one.
//
//   ./distributed_cloud [--hosts 4] [--workers-per-host 2] [--trajectories 32]
//                       [--t-end 40]
#include <cstdio>

#include "core/cwcsim.hpp"
#include "des/des.hpp"
#include "models/models.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const util::cli cli(argc, argv);

  const auto model = models::make_neurospora_cwc({});

  cwcsim::sim_config cfg;
  cfg.num_trajectories =
      static_cast<std::uint64_t>(cli.get_int("trajectories", 32));
  cfg.t_end = cli.get_double("t-end", 40.0);
  cfg.sample_period = 0.5;
  cfg.quantum = 5.0;
  cfg.stat_engines = 2;
  cfg.window_size = 8;
  cfg.window_slide = 8;
  cfg.kmeans_k = 0;

  // The unified streaming facade: the same run_builder program would run
  // multicore or GPU by swapping this one backend value.
  cwcsim::distributed be;
  be.num_hosts = static_cast<unsigned>(cli.get_int("hosts", 4));
  be.workers_per_host = static_cast<unsigned>(cli.get_int("workers-per-host", 2));
  be.network.latency_s = 120e-6;  // EC2-like
  be.network.bytes_per_s = 90e6;

  std::printf("virtual cluster: %u hosts x %u engines, EC2-like network\n",
              be.num_hosts, be.workers_per_host);
  auto session =
      cwcsim::run_builder().model(model).config(cfg).backend(be).open();
  std::size_t windows_streamed = 0;
  session.on_window(
      [&](const cwcsim::window_summary&) { ++windows_streamed; });
  const auto dr = session.wait();
  std::printf(
      "  wall %.2f s, %zu messages, %.1f kB serialized, %zu windows "
      "streamed on-line\n",
      dr.result.wall_seconds, dr.network->messages, dr.network->bytes / 1e3,
      windows_streamed);
  cfg.sim_workers = be.num_hosts * be.workers_per_host;
  const auto mc = cwcsim::run(model, cfg).result;
  const bool identical = dr.result.windows == mc.windows;
  std::printf("  results identical to shared-memory run: %s\n",
              identical ? "yes" : "NO");

  // The same campaign on a degraded cluster: host 0 runs at quarter speed
  // and the last host dies a quarter into its fair share of the work. The
  // elastic master re-issues what the dead host had in flight.
  cwcsim::distributed degraded = be;
  degraded.host_speed.assign(be.num_hosts, 1.0);
  degraded.host_speed[0] = 0.25;
  if (be.num_hosts > 1) {
    const double share = static_cast<double>(cfg.num_trajectories) *
                         cfg.t_end / be.num_hosts;
    degraded.kills = {{be.num_hosts - 1, 0.25 * share}};
  }
  const auto dk = cwcsim::run(model, cfg, degraded);
  const bool degraded_identical = dk.result.windows == mc.windows;
  std::printf("\ndegraded cluster: host 0 at 0.25x speed%s\n",
              degraded.kills.empty() ? "" : ", last host killed");
  std::printf("  wall %.2f s, %llu grants re-issued\n", dk.result.wall_seconds,
              static_cast<unsigned long long>(dk.network->reissued));
  std::printf("  results identical to shared-memory run: %s\n",
              degraded_identical ? "yes" : "NO");

  // ---- modeled performance on the paper's cloud -------------------------
  cwcsim::model_ref mr;
  mr.tree = &model;
  const auto cal = des::calibrate(mr, cfg);
  const auto w = des::capture_workload(mr, cfg);

  des::cluster_params cp;
  cp.master = des::platforms::ec2_quadcore_vm();
  cp.network = des::platforms::ec2_net();
  cp.sim_workers_per_host = 4;
  cp.stat_engines = 4;

  std::printf("\nmodeled on Amazon EC2 quad-core VMs (DES):\n");
  des::farm_params seq;
  seq.sim_workers = 1;
  seq.stat_engines = 4;
  const double t1 =
      des::simulate_multicore(w, cal, des::platforms::ec2_quadcore_vm(), seq)
          .makespan_s;
  for (unsigned hosts : {1u, 2u, 4u, 8u}) {
    cp.hosts.assign(hosts, des::platforms::ec2_quadcore_vm());
    const auto o = des::simulate_cluster(w, cal, cp);
    std::printf("  %u VMs (%2u vcores): modeled %7.2f s  speedup %5.2f\n", hosts,
                hosts * 4, o.makespan_s, t1 / o.makespan_s);
  }
  return identical && degraded_identical ? 0 : 1;
}
