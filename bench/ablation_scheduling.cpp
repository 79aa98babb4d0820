// Ablation (paper §IV-A claim): the farm's demand-driven dispatch
// load-balances heavily unbalanced Monte Carlo trajectories. Compares
// on-demand vs static round-robin dispatch on (a) the real Neurospora
// trace and (b) a synthetic heavy-tailed workload, across quantum sizes —
// quantum feedback is what keeps even static dispatch from degrading badly.
#include <cstdio>

#include "bench_common.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

/// Synthetic heavy-tailed workload: lognormal per-trajectory totals split
/// into quanta.
des::workload synthetic_heavy_tail(std::uint64_t n, std::uint64_t quanta) {
  des::workload w;
  w.num_trajectories = n;
  w.num_samples = quanta;
  w.observables = 3;
  w.t_end = static_cast<double>(quanta);
  w.sample_period = 1.0;
  w.quantum = 1.0;
  util::rng_stream rng(99, 0);
  w.quanta.resize(n);
  for (auto& traj : w.quanta) {
    const double scale = std::exp(1.5 * rng.next_normal());  // heavy tail
    traj.resize(quanta);
    for (std::uint64_t q = 0; q < quanta; ++q) {
      traj[q].ssa_steps =
          1 + static_cast<std::uint64_t>(2000.0 * scale * rng.next_uniform_pos());
      traj[q].samples = 1;
    }
  }
  return w;
}

}  // namespace

int main() {
  const auto host = des::platforms::nehalem_32core();

  const auto run = [&](const des::workload& w, const des::calibration& cal,
                       unsigned workers, des::dispatch_policy p,
                       std::size_t rebin) {
    des::farm_params fp;
    fp.sim_workers = workers;
    fp.stat_engines = 4;
    fp.window_size = 16;
    fp.window_slide = 16;
    fp.policy = p;
    const auto wl = rebin > 1 ? w.rebin(rebin) : w;
    return des::simulate_multicore(wl, cal, host, fp).makespan_s;
  };

  {
    std::printf("=== Ablation A1a: dispatch policy, Neurospora trace ===\n");
    const auto cap = bench::capture_neurospora(256, 60.0, 0.25);
    util::table t({"workers", "quantum", "on-demand (s)", "round-robin (s)",
                   "RR penalty"});
    for (const unsigned W : {8u, 16u, 32u}) {
      for (const std::size_t rb : {1u, 10u, 240u}) {  // tau, 10tau, whole run
        const double od = run(cap.workload, cap.cal, W,
                              des::dispatch_policy::on_demand, rb);
        const double rr = run(cap.workload, cap.cal, W,
                              des::dispatch_policy::round_robin, rb);
        t.add_row({std::to_string(W),
                   util::table::num(0.25 * static_cast<double>(rb), 2),
                   util::table::num(od, 3), util::table::num(rr, 3),
                   util::table::num(100.0 * (rr / od - 1.0), 1) + "%"});
      }
    }
    std::printf("%s", t.to_string().c_str());
  }

  {
    std::printf("\n=== Ablation A1b: dispatch policy, heavy-tailed synthetic ===\n");
    des::calibration cal;  // defaults; only relative times matter
    const auto w = synthetic_heavy_tail(256, 48);
    util::table t({"workers", "quanta/traj", "on-demand (s)", "round-robin (s)",
                   "RR penalty"});
    for (const unsigned W : {8u, 16u, 32u}) {
      for (const std::size_t rb : {1u, 8u, 48u}) {
        const double od =
            run(w, cal, W, des::dispatch_policy::on_demand, rb);
        const double rr =
            run(w, cal, W, des::dispatch_policy::round_robin, rb);
        t.add_row({std::to_string(W), std::to_string(48 / rb),
                   util::table::num(od, 3), util::table::num(rr, 3),
                   util::table::num(100.0 * (rr / od - 1.0), 1) + "%"});
      }
    }
    std::printf("%s", t.to_string().c_str());
  }

  std::printf(
      "\nExpected: on-demand <= round-robin everywhere; the gap widens with\n"
      "heavier tails and coarser quanta (fewer rebalancing opportunities).\n");
  return 0;
}
