// Reproduces paper Fig. 6: (top) the virtual cluster of eight quad-core
// Amazon EC2 VMs — speedup vs number of virtual cores, near-ideal up to
// ~28x at 32 vcores; (bottom) the heterogeneous platform (8 quad-core VMs +
// one 32-core Nehalem + two 16-core Sandy Bridge hosts, 96 cores total) —
// the paper reports a ~62x gain over the single-vcore run and a 69.3 s
// minimum execution time.
//
// The final section leaves the DES model and RUNS the distributed runtime
// on a live virtual cluster, as the regression harness for elastic
// scheduling: under one 4x-slower host, the pull-based elastic scheduler
// must beat a static start-of-run partition by >= 1.3x wall clock while
// staying bit-exact with the shared-memory farm, and it must complete
// bit-exactly with a host killed mid-run on top of the straggler. The
// static partition is not run but bounded: its makespan is set by the
// straggler's contiguous share of N/hosts trajectories, whose compute
// (timed by running that share as the lane-executor blocks the hosts run,
// dist/lane_blocks.hpp) is stretched by 1/speed while the rest of the
// homogeneous run's cost stays. Each wall time in the gate is the fastest
// of three runs, so one noisy run cannot move the bound or the elastic
// time; the table prints every run. `--tiny` shrinks every workload for
// CI smoke runs (correctness still enforced; the speedup floor is only
// reported, not gated, at that scale).
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/cwcsim.hpp"
#include "core/lane_executor.hpp"
#include "dist/lane_blocks.hpp"
#include "util/table.hpp"

namespace {

struct live_run {
  double wall = 0.0;
  cwcsim::run_report r;
};

/// One run on the live 4-host cluster; host speeds and kills ride on the
/// descriptor like every other deployment knob.
live_run run_live(const cwc::model& m, const cwcsim::sim_config& cfg,
                  std::vector<double> speed,
                  std::vector<cwcsim::kill_spec> kills) {
  cwcsim::distributed cluster{4, 1};
  cluster.network.latency_s = 1e-4;
  cluster.network.bytes_per_s = 50e6;
  cluster.host_speed = std::move(speed);
  cluster.kills = std::move(kills);

  util::stopwatch sw;
  live_run o;
  o.r = cwcsim::run(m, cfg, cluster);
  o.wall = sw.elapsed_s();
  return o;
}

/// Runs per timed scenario; the gate uses the fastest.
constexpr int kRepeats = 3;

/// Seconds to run host `host`'s share of a 4 x 1 cluster's lane blocks to
/// t_end on this thread, the way the hosts run them; fastest of kRepeats.
double share_seconds(const cwc::model& m, const cwcsim::sim_config& cfg,
                     unsigned host) {
  cwcsim::model_ref mr;
  mr.tree = &m;
  mr.compile();
  double best = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    util::stopwatch sw;
    for (const auto& b : dist::plan_blocks(cfg.num_trajectories, 4, 1)) {
      if (b.home != host) continue;
      std::vector<cwcsim::lane_executor::lane> lanes;
      for (std::uint64_t i = 0; i < b.lanes; ++i)
        lanes.push_back({b.first + i, 0});
      cwcsim::lane_executor ex({mr.compiled}, cfg, std::move(lanes),
                               static_cast<std::size_t>(b.lanes), 1);
      while (ex.live() > 0)
        ex.round([](const auto&) {}, [](std::uint32_t, const auto&) {});
    }
    const double s = sw.elapsed_s();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

/// Elastic-vs-static regression on a live 4-host virtual cluster.
/// Returns the number of failed checks.
int live_cluster_section(bool tiny) {
  const auto m = models::make_neurospora_cwc({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = tiny ? 16 : 64;
  cfg.t_end = tiny ? 12.0 : 48.0;
  cfg.sample_period = 0.5;
  cfg.quantum = tiny ? 3.0 : 6.0;
  cfg.kmeans_k = 0;
  cfg.window_size = 8;
  cfg.window_slide = 8;

  // One straggler at quarter speed; one host killed a quarter into its
  // fair share of the campaign (in executed simulated seconds).
  constexpr double kSlowSpeed = 0.25;
  const std::vector<double> hetero{1.0, kSlowSpeed, 1.0, 1.0};
  const double share =
      static_cast<double>(cfg.num_trajectories) * cfg.t_end / 4.0;
  const std::vector<cwcsim::kill_spec> kill3{{3u, 0.25 * share}};

  std::printf(
      "\n=== Live virtual cluster: elastic vs static scheduling ===\n");
  std::printf("(4 hosts x 1 worker, %llu trajectories to t=%g%s; "
              "gate on the fastest of %d runs)\n",
              static_cast<unsigned long long>(cfg.num_trajectories), cfg.t_end,
              tiny ? ", --tiny" : "", kRepeats);

  // Every scenario must reproduce the shared-memory farm bit for bit.
  const auto farm = cwcsim::run(m, cfg).result;
  bool exact = true;
  util::table t({"scenario", "run", "static bound (s)", "elastic (s)",
                 "speedup", "bit-exact", "reissued"});
  const auto run_rows = [&](const char* name, std::vector<double> speed,
                            std::vector<cwcsim::kill_spec> kills, int runs) {
    double best = 0.0;
    for (int i = 0; i < runs; ++i) {
      const auto o = run_live(m, cfg, speed, kills);
      const bool ok = o.r.result.windows == farm.windows;
      exact = exact && ok;
      t.add_row({name, std::to_string(i + 1), "-",
                 util::table::num(o.wall, 2), "-", ok ? "yes" : "NO",
                 std::to_string(o.r.network->reissued)});
      if (i == 0 || o.wall < best) best = o.wall;
    }
    return best;
  };

  // One 4x-slower host: a static partition hands host 1 the share
  // [N/4, N/2) and is dragged to its pace — the share's compute takes
  // 1/kSlowSpeed times longer, on top of the homogeneous run — while the
  // elastic pull rebalances around it.
  const double homog = run_rows("homogeneous", {}, {}, kRepeats);
  const double share_s = share_seconds(m, cfg, 1);
  const double static_s = homog + share_s * (1.0 / kSlowSpeed - 1.0);
  const double slow = run_rows("1 slow host (0.25x)", hetero, {}, kRepeats);
  const double speedup = static_s / slow;
  t.add_row({"1 slow host (0.25x)", "fastest", util::table::num(static_s, 2),
             util::table::num(slow, 2), util::table::num(speedup, 2) + "x",
             "-", "-"});

  // Straggler AND a dead host: still bit-exact.
  const auto elas_k = run_live(m, cfg, hetero, kill3);
  const bool exact_k = elas_k.r.result.windows == farm.windows;
  exact = exact && exact_k;
  t.add_row({"1 slow + 1 killed", "1", "-", util::table::num(elas_k.wall, 2),
             "-", exact_k ? "yes" : "NO",
             std::to_string(elas_k.r.network->reissued)});
  std::printf("%s", t.to_string().c_str());
  std::printf("static bound = fastest homogeneous %.2f s + host 1's share "
              "%.3f s x %.0f\n",
              homog, share_s, 1.0 / kSlowSpeed - 1.0);
  const auto& net_k = *elas_k.r.network;
  std::printf(
      "elastic w/ kill: grants=%llu duplicates=%llu dropped=%llu "
      "host_quanta=[%llu %llu %llu %llu]\n",
      static_cast<unsigned long long>(net_k.grants),
      static_cast<unsigned long long>(net_k.duplicate_quanta),
      static_cast<unsigned long long>(net_k.messages_dropped),
      static_cast<unsigned long long>(net_k.host_quanta[0]),
      static_cast<unsigned long long>(net_k.host_quanta[1]),
      static_cast<unsigned long long>(net_k.host_quanta[2]),
      static_cast<unsigned long long>(net_k.host_quanta[3]));

  int failures = 0;
  if (!exact) {
    std::printf("FAIL: elastic results diverged from the shared-memory farm\n");
    ++failures;
  }
  if (!tiny && speedup < 1.3) {
    std::printf("FAIL: elastic speedup %.2fx under 1 slow host (floor 1.3x)\n",
                speedup);
    ++failures;
  }
  if (tiny && speedup < 1.3)
    std::printf("note: speedup %.2fx below the 1.3x floor at --tiny scale "
                "(not gated)\n",
                speedup);
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const bool tiny = argc > 1 && std::strcmp(argv[1], "--tiny") == 0;

  const auto cap = tiny ? bench::capture_neurospora(32, 48.0, 0.25)
                        : bench::capture_neurospora(224, 240.0, 0.25);
  const auto w = cap.workload.rebin(10);

  des::cluster_params cp;
  cp.master = des::platforms::ec2_quadcore_vm();
  cp.network = des::platforms::ec2_net();
  cp.stat_engines = 4;
  cp.window_size = 16;
  cp.window_slide = 4;
  cp.bytes_per_sample = 3 * 8 + 16;

  // Baseline: sequential run on a single EC2 vcore.
  des::host_spec one_core = des::platforms::ec2_quadcore_vm();
  one_core.cores = 1;
  des::farm_params seq;
  seq.sim_workers = 1;
  seq.stat_engines = 1;
  seq.window_size = cp.window_size;
  seq.window_slide = cp.window_slide;
  const double t1 = des::simulate_multicore(w, cap.cal, one_core, seq).makespan_s;
  std::printf("sequential single-vcore reference: %.2f model-s\n\n", t1);

  std::printf("=== Fig. 6 (top): virtual cluster of quad-core VMs ===\n");
  util::table top({"VMs", "vcores", "exec (model s)", "speedup", "ideal"});
  for (unsigned vms = 1; vms <= 8; ++vms) {
    cp.hosts.assign(vms, des::platforms::ec2_quadcore_vm());
    cp.sim_workers_per_host = 4;
    const auto o = des::simulate_cluster(w, cap.cal, cp);
    top.add_row({std::to_string(vms), std::to_string(vms * 4),
                 util::table::num(o.makespan_s, 2),
                 util::table::num(t1 / o.makespan_s, 2),
                 std::to_string(vms * 4)});
  }
  std::printf("%s", top.to_string().c_str());

  std::printf("\n=== Fig. 6 (bottom): heterogeneous platform ===\n");
  util::table bot({"configuration", "cores", "exec (model s)", "gain"});
  struct stage {
    const char* name;
    std::vector<des::host_spec> hosts;
    std::vector<unsigned> workers;
    unsigned cores;
  };
  const auto vm = des::platforms::ec2_quadcore_vm();
  const auto nehalem = des::platforms::nehalem_32core();
  const auto sandy = des::platforms::sandybridge_16core();

  std::vector<stage> stages;
  stages.push_back({"1 VM (4 vcores)", {vm}, {4}, 4});
  stages.push_back({"8 VMs (32 vcores)", std::vector<des::host_spec>(8, vm),
                    std::vector<unsigned>(8, 4), 32});
  {
    std::vector<des::host_spec> hosts(8, vm);
    hosts.push_back(nehalem);
    std::vector<unsigned> workers(8, 4);
    workers.push_back(16);
    stages.push_back({"8 VMs + Nehalem/16w", hosts, workers, 48});
  }
  {
    std::vector<des::host_spec> hosts(8, vm);
    hosts.push_back(nehalem);
    std::vector<unsigned> workers(8, 4);
    workers.push_back(32);
    stages.push_back({"8 VMs + Nehalem/32w", hosts, workers, 64});
  }
  {
    std::vector<des::host_spec> hosts(8, vm);
    hosts.push_back(nehalem);
    hosts.push_back(sandy);
    hosts.push_back(sandy);
    std::vector<unsigned> workers(8, 4);
    workers.push_back(32);
    workers.push_back(16);
    workers.push_back(16);
    stages.push_back({"8 VMs + Nehalem + 2x16 SB", hosts, workers, 96});
  }

  for (const auto& st : stages) {
    cp.hosts = st.hosts;
    cp.workers_per_host = st.workers;
    const auto o = des::simulate_cluster(w, cap.cal, cp);
    bot.add_row({st.name, std::to_string(st.cores),
                 util::table::num(o.makespan_s, 2),
                 util::table::num(t1 / o.makespan_s, 1) + "x"});
  }
  std::printf("%s", bot.to_string().c_str());
  std::printf(
      "\nPaper shape: ~28x at 32 vcores; heterogeneous 96 cores ~62x over\n"
      "the single-vcore baseline (communication-bound tail).\n");

  return live_cluster_section(tiny);
}
