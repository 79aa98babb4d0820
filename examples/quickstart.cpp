// Quickstart: define a CWC model from text and run it through the unified
// streaming API — windows of filtered (mean ± sd) statistics are printed
// *as they stream out of the analysis pipeline*, while the simulation is
// still running (the paper's on-line analysis surface).
//
//   ./quickstart [--trajectories 64] [--t-end 30] [--workers 4]
#include <cstdio>

#include "core/cwcsim.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const util::cli cli(argc, argv);

  // 1. A model: enzymatic conversion in a cell compartment, written in the
  //    CWC concrete syntax. Unknown names are interned on first use.
  cwc::model model;
  model.set_initial(cwc::parse_term(model, "(cell: | 50*E 1000*S)"));
  model.add_rule(cwc::parse_rule(model, "bind", "cell: E + S -> ES @ 0.01"));
  model.add_rule(cwc::parse_rule(model, "unbind", "cell: ES -> E + S @ 1.0"));
  model.add_rule(cwc::parse_rule(model, "catalyse", "cell: ES -> E + P @ 1.0"));
  model.add_observable("S", model.species().id("S"));
  model.add_observable("P", model.species().id("P"));

  // 2. Configure the pipeline (Fig. 2 of the paper): a farm of simulation
  //    engines with quantum scheduling, trajectory alignment, sliding
  //    windows, and a farm of statistical engines.
  cwcsim::sim_config cfg;
  cfg.num_trajectories =
      static_cast<std::uint64_t>(cli.get_int("trajectories", 64));
  cfg.t_end = cli.get_double("t-end", 30.0);
  cfg.sample_period = 0.5;
  cfg.quantum = 5.0;
  cfg.sim_workers = static_cast<unsigned>(cli.get_int("workers", 4));
  cfg.stat_engines = 2;
  cfg.window_size = 10;
  cfg.window_slide = 10;
  cfg.kmeans_k = 0;

  // 3. Open a session and subscribe to the window stream. Swapping the
  //    .backend(...) argument — cwcsim::multicore{}, ::distributed{...},
  //    ::gpu{...} — moves the same program between deployments.
  auto session = cwcsim::run_builder()
                     .model(model)
                     .config(cfg)
                     .backend(cwcsim::multicore{})
                     .open();

  std::printf("%8s %12s %12s %12s %12s\n", "t", "mean(S)", "sd(S)", "mean(P)",
              "sd(P)");
  session.on_window([](const cwcsim::window_summary& w) {
    // Called on-line, in time order, while the simulation is running.
    for (const auto& cut : w.cuts) {
      if (cut.sample_index % 10 != 0) continue;
      std::printf("%8.1f %12.2f %12.2f %12.2f %12.2f\n", cut.time,
                  cut.moments[0].mean(), cut.moments[0].stddev(),
                  cut.moments[1].mean(), cut.moments[1].stddev());
    }
  });

  // 4. wait() starts the run, streams, and returns the unified report —
  //    the same windows, bit-exact, plus backend extras. (The one-liner
  //    alternative: auto report = cwcsim::run(model, cfg, backend);)
  const auto report = session.wait();

  std::printf("# %llu trajectories, %u sim workers, %s backend, %.2fs wall\n",
              static_cast<unsigned long long>(cfg.num_trajectories),
              cfg.sim_workers, report.backend.c_str(),
              report.result.wall_seconds);
  return 0;
}
