// The paper's flagship workload: circadian oscillations of the Neurospora
// frq gene (Leloup-Gonze-Goldbeter 1999). Reproduces the cloud experiment's
// analysis (§V-B): "We compute the period of each oscillation and plot the
// moving average ... of the local period", and compares the stochastic
// ensemble with the deterministic ODE limit cycle.
//
//   ./neurospora_circadian [--trajectories 32] [--t-end 300] [--omega 100]
#include <cstdio>

#include "core/cwcsim.hpp"
#include "models/models.hpp"
#include "stats/stats.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const util::cli cli(argc, argv);

  models::neurospora_params params;
  params.omega = cli.get_double("omega", 100.0);
  const auto model = models::make_neurospora_cwc(params);

  cwcsim::sim_config cfg;
  cfg.num_trajectories =
      static_cast<std::uint64_t>(cli.get_int("trajectories", 32));
  cfg.t_end = cli.get_double("t-end", 300.0);
  cfg.sample_period = 0.5;
  cfg.quantum = 5.0;
  cfg.sim_workers = static_cast<unsigned>(cli.get_int("workers", 4));
  cfg.stat_engines = 2;
  cfg.window_size = 16;
  cfg.window_slide = 16;
  cfg.kmeans_k = 0;

  std::printf("Simulating %llu trajectories of the Neurospora model to t=%g h\n",
              static_cast<unsigned long long>(cfg.num_trajectories), cfg.t_end);
  // The unified facade with a progress subscription: completions stream in
  // while the campaign runs (swap the third argument to change deployment).
  auto session = cwcsim::run_builder().model(model).config(cfg).open();
  session.on_progress([&, announced = false](const cwcsim::progress& p) mutable {
    if (p.trajectories_done == p.trajectories_total && !announced) {
      announced = true;
      std::printf("  all %llu trajectories done, %llu windows streamed\n",
                  static_cast<unsigned long long>(p.trajectories_done),
                  static_cast<unsigned long long>(p.windows_emitted));
    }
  });
  const auto result = session.wait().result;
  std::printf("pipeline wall time: %.2f s\n\n", result.wall_seconds);

  // --- per-oscillation local periods of one representative trajectory ----
  cwc::engine eng(cwc::compiled_model::compile(model), cfg.seed,
                  /*trajectory=*/0);
  std::vector<cwc::trajectory_sample> traj;
  eng.run_to(cfg.t_end, cfg.sample_period, traj);
  std::vector<double> t, m_series;
  for (const auto& s : traj) {
    if (s.time < 50.0) continue;  // transient
    t.push_back(s.time);
    m_series.push_back(s.values[0]);
  }
  const auto smooth = stats::moving_average(m_series, 9);
  const auto periods = stats::local_periods(t, smooth, params.omega * 1.0);
  const auto period_ma = stats::moving_average(periods, 5);

  std::printf("local oscillation periods (trajectory 0, moving average of 5):\n");
  for (std::size_t i = 0; i < period_ma.size(); ++i)
    std::printf("  oscillation %2zu: period %6.2f h (ma %6.2f h)\n", i + 1,
                periods[i], period_ma[i]);

  // --- deterministic reference -------------------------------------------
  auto [f, y0] = models::make_neurospora_ode(params);
  const auto ode = cwc::rk4_integrate(f, y0, 0.0, cfg.t_end, 0.01, 0.5);
  std::vector<double> ode_t, ode_m;
  for (const auto& s : ode) {
    if (s.time < 50.0) continue;
    ode_t.push_back(s.time);
    ode_m.push_back(s.values[0]);
  }
  const auto ode_periods = stats::local_periods(ode_t, ode_m, 1.0);
  double ode_mean = 0.0;
  for (double p : ode_periods) ode_mean += p;
  if (!ode_periods.empty()) ode_mean /= static_cast<double>(ode_periods.size());
  std::printf("\ndeterministic (ODE) period: %.2f h  — published value ~21.5 h\n",
              ode_mean);

  // --- ensemble mean of nuclear FRQ --------------------------------------
  std::printf("\nensemble mean FN (every 12 h):\n");
  for (const auto& cut : result.all_cuts()) {
    if (cut.sample_index % 24 != 0) continue;
    std::printf("  t=%6.1f  mean(FN)=%8.2f  sd=%7.2f\n", cut.time,
                cut.moments[2].mean(), cut.moments[2].stddev());
  }
  return 0;
}
