// Reproduces paper Fig. 4: speedup of the distributed simulator on the
// Infiniband (IPoIB) cluster of Xeon X5670 nodes, using 2 or 4 cores per
// host, with 4 statistical engines on the master — plotted (top) against
// the number of hosts and (bottom) against the aggregated core count.
//
// Expected shape: near-linear scaling in hosts for both configurations;
// per aggregated core, the 2-cores-per-host configuration sits closer to
// ideal (each host's network stream carries less traffic per core).
#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

int main() {
  const auto cap = bench::capture_neurospora(1024, 60.0, 0.25);
  const auto w = cap.workload.rebin(10);

  des::cluster_params cp;
  cp.master = des::platforms::xeon_x5670();
  cp.network = des::platforms::ipoib();
  cp.stat_engines = 4;
  cp.window_size = 16;
  cp.window_slide = 4;

  // Sequential baseline: one engine on one node, same analysis.
  des::farm_params seq;
  seq.sim_workers = 1;
  seq.stat_engines = 4;
  seq.window_size = cp.window_size;
  seq.window_slide = cp.window_slide;
  const double t1 =
      des::simulate_multicore(w, cap.cal, des::platforms::xeon_x5670(), seq)
          .makespan_s;

  std::printf("=== Fig. 4 (top): speedup vs n. of hosts ===\n");
  util::table top({"hosts", "S(2 cores/host)", "S(4 cores/host)", "ideal(4c)"});
  std::printf("(sequential reference: %.2f s)\n", t1);
  struct point {
    unsigned hosts;
    unsigned cores;
    double speedup;
  };
  std::vector<point> agg;
  for (unsigned hosts = 1; hosts <= 8; ++hosts) {
    std::vector<std::string> row{std::to_string(hosts)};
    for (const unsigned cores : {2u, 4u}) {
      cp.hosts.assign(hosts, des::platforms::xeon_x5670());
      cp.sim_workers_per_host = cores;
      const auto o = des::simulate_cluster(w, cap.cal, cp);
      const double s = t1 / o.makespan_s;
      row.push_back(util::table::num(s, 2));
      agg.push_back({hosts, hosts * cores, s});
    }
    row.push_back(std::to_string(hosts * 4));
    top.add_row(std::move(row));
  }
  std::printf("%s", top.to_string().c_str());

  std::printf("\n=== Fig. 4 (bottom): speedup vs aggregated n. of cores ===\n");
  util::table bot({"aggregated cores", "S(2 cores/host)", "S(4 cores/host)",
                   "ideal"});
  for (unsigned cores = 2; cores <= 32; cores += 2) {
    std::string s2 = "-", s4 = "-";
    for (const auto& p : agg) {
      const unsigned per_host = p.cores / p.hosts;
      if (p.cores != cores) continue;
      (per_host == 2 ? s2 : s4) = util::table::num(p.speedup, 2);
    }
    if (s2 == "-" && s4 == "-") continue;
    bot.add_row({std::to_string(cores), s2, s4, std::to_string(cores)});
  }
  std::printf("%s", bot.to_string().c_str());
  std::printf(
      "\nPaper shape: near-linear in hosts; per aggregated core the 2-core\n"
      "configuration tracks ideal more closely than the 4-core one.\n");
  return 0;
}
