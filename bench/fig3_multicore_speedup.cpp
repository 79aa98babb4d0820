// Reproduces paper Fig. 3: speedup of the multicore simulator on the
// Neurospora model on the 32-core (64 hyperthread) Nehalem platform, for
// 128 / 512 / 1024 trajectories, with (top) one statistical engine and
// (bottom) a farm of four statistical engines.
//
// Method: the per-quantum work profile is captured from the real CWC
// engine on this machine; the DES replays it through the Fig. 2 pipeline
// model on the paper's platform (see des/engine.hpp). Expected shape:
// near-ideal speedup up to 512 trajectories; with one statistical engine
// the 1024-trajectory run saturates (on-line analysis bottleneck); four
// engines restore near-ideal scaling.
#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

int main() {
  // Analysis configuration: overlapping sliding windows (slide 1 of 16) —
  // every cut is processed by 16 windows, the on-line filtering load the
  // paper's analysis farm exists to absorb.
  constexpr std::size_t kWindow = 16, kSlide = 1;
  const auto cap = bench::capture_neurospora(1024, 60.0, 0.25);
  const auto host = des::platforms::nehalem_32core();
  const unsigned workers[] = {1, 2, 4, 8, 12, 16, 20, 24, 28, 32};

  for (const unsigned stat_engines : {1u, 4u}) {
    std::printf("\n=== Fig. 3 (%s): speedup vs n. sim workers, %u stat engine(s) ===\n",
                stat_engines == 1 ? "top" : "bottom", stat_engines);
    util::table t({"workers", "S(128 traj)", "S(512 traj)", "S(1024 traj)",
                   "ideal"});
    std::vector<double> t1(3, 0.0);
    std::vector<des::workload> wl;
    wl.push_back(cap.workload.slice(128).rebin(10));
    wl.push_back(cap.workload.slice(512).rebin(10));
    wl.push_back(cap.workload.slice(1024).rebin(10));

    for (const unsigned W : workers) {
      std::vector<std::string> row{std::to_string(W)};
      for (std::size_t i = 0; i < wl.size(); ++i) {
        des::farm_params fp;
        fp.sim_workers = W;
        fp.stat_engines = stat_engines;
        fp.window_size = kWindow;
        fp.window_slide = kSlide;
        const auto o = des::simulate_multicore(wl[i], cap.cal, host, fp);
        if (W == 1) t1[i] = o.makespan_s;
        row.push_back(util::table::num(t1[i] / o.makespan_s, 2));
      }
      row.push_back(std::to_string(W));
      t.add_row(std::move(row));
    }
    std::printf("%s", t.to_string().c_str());
  }
  std::printf(
      "\nPaper shape: ideal up to 512 trajectories; 1024 saturates with one\n"
      "statistical engine and recovers with four (Fig. 3 top vs bottom).\n");
  return 0;
}
