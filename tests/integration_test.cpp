// Whole-system scientific integration tests: the full pipeline run on the
// paper's workload, validated against the deterministic reference dynamics
// and the paper's qualitative claims.
#include <gtest/gtest.h>

#include <cmath>

#include "core/cwcsim.hpp"
#include "models/models.hpp"
#include "stats/stats.hpp"

namespace {

TEST(Neurospora, EnsembleMeanTracksOdeDuringTransient) {
  // Before the oscillators desynchronise, the SSA ensemble mean over many
  // trajectories follows the deterministic trajectory (law of large
  // numbers, omega = 100 molecules/nM).
  models::neurospora_params p;
  const auto m = models::make_neurospora_cwc(p);

  cwcsim::sim_config cfg;
  cfg.num_trajectories = 64;
  cfg.t_end = 12.0;
  cfg.sample_period = 1.0;
  cfg.quantum = 3.0;
  cfg.sim_workers = 3;
  cfg.stat_engines = 2;
  cfg.window_size = 4;
  cfg.window_slide = 4;
  cfg.kmeans_k = 0;
  const auto res = cwcsim::run(m, cfg).result;

  auto [f, y0] = models::make_neurospora_ode(p);
  const auto ode = cwc::rk4_integrate(f, y0, 0.0, cfg.t_end, 0.001, 1.0);

  const auto cuts = res.all_cuts();
  ASSERT_EQ(cuts.size(), ode.size());
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    for (std::size_t d = 0; d < 3; ++d) {
      const double stoch = cuts[k].moments[d].mean() / p.omega;
      const double det = ode[k].values[d];
      // 10% relative + small absolute tolerance for low-copy noise.
      EXPECT_NEAR(stoch, det, 0.1 * det + 0.15)
          << "t=" << cuts[k].time << " dim=" << d;
    }
  }
}

TEST(Neurospora, StochasticTrajectoryShowsCircadianPeriod) {
  const auto m = models::make_neurospora_cwc({});
  cwc::engine eng(cwc::compiled_model::compile(m), 99, 0);
  std::vector<cwc::trajectory_sample> out;
  eng.run_to(400.0, 0.5, out);

  // Smooth M, then extract local periods after the transient.
  std::vector<double> t, y;
  for (const auto& s : out) {
    if (s.time < 100.0) continue;
    t.push_back(s.time);
    y.push_back(s.values[0]);
  }
  const auto smooth = stats::moving_average(y, 9);
  const auto periods = stats::local_periods(t, smooth, 120.0);
  ASSERT_GE(periods.size(), 5u);
  double mean = 0.0;
  for (double p : periods) mean += p;
  mean /= static_cast<double>(periods.size());
  // Stochastic local periods scatter around the deterministic 21.5 h.
  EXPECT_NEAR(mean, 21.5, 5.0);
}

TEST(Neurospora, VarianceGrowsFromSharpInitialCondition) {
  const auto m = models::make_neurospora_cwc({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 32;
  cfg.t_end = 20.0;
  cfg.sample_period = 2.0;
  cfg.quantum = 5.0;
  cfg.sim_workers = 2;
  cfg.kmeans_k = 0;
  const auto res = cwcsim::run(m, cfg).result;
  const auto cuts = res.all_cuts();
  EXPECT_DOUBLE_EQ(cuts.front().moments[0].variance(), 0.0);
  EXPECT_GT(cuts.back().moments[0].variance(), 10.0);
}

TEST(Schlogl, KmeansSeparatesTheTwoAttractors) {
  const auto net = models::make_schlogl({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 48;
  cfg.t_end = 15.0;
  cfg.sample_period = 1.0;
  cfg.quantum = 5.0;
  cfg.sim_workers = 3;
  cfg.kmeans_k = 2;
  cfg.window_size = 4;
  cfg.window_slide = 4;
  const auto res = cwcsim::run(net, cfg).result;

  const auto cuts = res.all_cuts();
  const auto& last = cuts.back();
  ASSERT_EQ(last.clusters.centroids.size(), 2u);
  double lo = last.clusters.centroids[0][0];
  double hi = last.clusters.centroids[1][0];
  if (lo > hi) std::swap(lo, hi);
  EXPECT_LT(lo, 200.0);  // low attractor ~85
  EXPECT_GT(hi, 350.0);  // high attractor ~565
  EXPECT_GT(last.clusters.sizes[0], 0u);
  EXPECT_GT(last.clusters.sizes[1], 0u);
}

TEST(MichaelisMenten, FullModelMatchesReducedKinetics) {
  // Product formation in the elementary model matches the reduced MM law
  // when enzyme << substrate (quasi-steady-state).
  models::michaelis_menten_params p;
  p.e0 = 20;
  p.s0 = 2000;
  const auto full = models::make_michaelis_menten(p);

  // Reduced model: S -> P at Vmax*S/(Km+S), Vmax=kcat*E0, Km=(kr+kcat)/kf.
  cwc::reaction_network reduced;
  const auto s = reduced.declare_species("S");
  const auto prod = reduced.declare_species("P");
  reduced.set_initial(s, p.s0);
  const double vmax = p.kcat * static_cast<double>(p.e0);
  const double km = (p.kr + p.kcat) / p.kf;
  reduced.add_reaction("mm", {{s, 1}}, {{prod, 1}},
                       cwc::rate_law::michaelis_menten(vmax, km, s));

  stats::welford full_p, red_p;
  const double T = 20.0;
  for (std::uint64_t i = 0; i < 24; ++i) {
    cwc::flat_engine fe(cwc::compiled_model::compile(full), 5, i);
    std::vector<cwc::trajectory_sample> fs;
    fe.run_to(T, T, fs);
    full_p.add(fs.back().values[full.species().id("P")]);

    cwc::flat_engine re(cwc::compiled_model::compile(reduced), 6, i);
    std::vector<cwc::trajectory_sample> rs;
    re.run_to(T, T, rs);
    red_p.add(rs.back().values[prod]);
  }
  EXPECT_NEAR(full_p.mean(), red_p.mean(), 0.08 * full_p.mean());
}

TEST(LotkaVolterra, TrajectoryRuntimesAreHeavilyUnbalanced) {
  // The paper's load-balancing motivation: per-trajectory work varies a
  // lot (extinctions vs sustained oscillations).
  const auto net = models::make_lotka_volterra({});
  std::vector<std::uint64_t> steps;
  for (std::uint64_t i = 0; i < 24; ++i) {
    cwc::flat_engine eng(cwc::compiled_model::compile(net), 31, i);
    std::vector<cwc::trajectory_sample> out;
    eng.run_to(30.0, 30.0, out);
    steps.push_back(eng.steps());
  }
  const auto [mn, mx] = std::minmax_element(steps.begin(), steps.end());
  EXPECT_GT(static_cast<double>(*mx), 1.5 * static_cast<double>(*mn));
}

TEST(CompartmentDemo, PipelineHandlesDynamicCompartments) {
  const auto m = models::make_compartment_demo({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 16;
  cfg.t_end = 30.0;
  cfg.sample_period = 1.0;
  cfg.quantum = 6.0;
  cfg.sim_workers = 3;
  cfg.kmeans_k = 0;
  const auto res = cwcsim::run(m, cfg).result;
  const auto cuts = res.all_cuts();
  ASSERT_EQ(cuts.size(), cfg.num_samples());
  // C (burst product) accumulates over time on average.
  EXPECT_GT(cuts.back().moments[2].mean(), cuts.front().moments[2].mean());
}

TEST(Determinism, GlobalSeedChangesResults) {
  const auto m = models::make_neurospora_cwc({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 8;
  cfg.t_end = 5.0;
  cfg.sample_period = 1.0;
  cfg.quantum = 2.5;
  cfg.kmeans_k = 0;
  auto a = cwcsim::run(m, cfg).result;
  cfg.seed = 777;
  auto b = cwcsim::run(m, cfg).result;
  const auto ca = a.all_cuts();
  const auto cb = b.all_cuts();
  bool any_diff = false;
  for (std::size_t k = 1; k < ca.size(); ++k)
    if (ca[k].moments[0].mean() != cb[k].moments[0].mean()) any_diff = true;
  EXPECT_TRUE(any_diff);
}

}  // namespace
