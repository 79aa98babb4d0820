// Tests for the stochastic engines: determinism, quantum-composability (the
// property quantum scheduling relies on), CWC-vs-flat equivalence, and the
// ODE baseline. cwc_exact_test.cpp checks the engines against exact laws.
#include <gtest/gtest.h>

#include <cmath>

#include "cwc/cwc.hpp"
#include "models/models.hpp"
#include "stats/welford.hpp"

namespace {

TEST(FlatEngine, DeterministicPerSeedAndId) {
  const auto net = models::make_birth_death({});
  cwc::flat_engine a(cwc::compiled_model::compile(net), 42, 3);
  cwc::flat_engine b(cwc::compiled_model::compile(net), 42, 3);
  std::vector<cwc::trajectory_sample> sa, sb;
  a.run_to(10.0, 0.5, sa);
  b.run_to(10.0, 0.5, sb);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i)
    EXPECT_EQ(sa[i].values, sb[i].values);
  EXPECT_EQ(a.steps(), b.steps());
}

TEST(FlatEngine, DifferentTrajectoriesDiffer) {
  const auto net = models::make_birth_death({});
  cwc::flat_engine a(cwc::compiled_model::compile(net), 42, 0);
  cwc::flat_engine b(cwc::compiled_model::compile(net), 42, 1);
  std::vector<cwc::trajectory_sample> sa, sb;
  a.run_to(20.0, 1.0, sa);
  b.run_to(20.0, 1.0, sb);
  bool any_diff = false;
  for (std::size_t i = 0; i < sa.size(); ++i)
    if (sa[i].values != sb[i].values) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(FlatEngine, SamplesCoverFullGridIncludingStall) {
  // SIR epidemics die out; the sample grid must still be fully emitted.
  const auto net = models::make_sir({});
  cwc::flat_engine eng(cwc::compiled_model::compile(net), 3, 0);
  std::vector<cwc::trajectory_sample> out;
  eng.run_to(400.0, 1.0, out);
  ASSERT_EQ(out.size(), 401u);
  for (std::size_t k = 0; k < out.size(); ++k)
    EXPECT_DOUBLE_EQ(out[k].time, static_cast<double>(k));
  // Epidemic over: no infected left at the end.
  EXPECT_DOUBLE_EQ(out.back().values[net.species().id("I")], 0.0);
}

TEST(FlatEngine, QuantumCompositionInvariance) {
  // Running [0,T] in one call or in many quanta must give identical
  // samples AND identical RNG consumption — the property that makes the
  // pipeline's quantum scheduling statistically transparent.
  const auto net = models::make_lotka_volterra({});
  cwc::flat_engine one(cwc::compiled_model::compile(net), 11, 5);
  std::vector<cwc::trajectory_sample> sa;
  one.run_to(8.0, 0.25, sa);

  cwc::flat_engine chunked(cwc::compiled_model::compile(net), 11, 5);
  std::vector<cwc::trajectory_sample> sb;
  for (double t = 0.5; t <= 8.0 + 1e-9; t += 0.5) chunked.run_to(t, 0.25, sb);

  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i].time, sb[i].time);
    EXPECT_EQ(sa[i].values, sb[i].values) << "at t=" << sa[i].time;
  }
}

class quantum_param_test : public ::testing::TestWithParam<double> {};

TEST_P(quantum_param_test, CwcEngineQuantumInvariance) {
  const double quantum = GetParam();
  const auto m = models::make_neurospora_cwc({});
  cwc::engine ref(cwc::compiled_model::compile(m), 5, 2);
  std::vector<cwc::trajectory_sample> sa;
  ref.run_to(20.0, 0.5, sa);

  cwc::engine q(cwc::compiled_model::compile(m), 5, 2);
  std::vector<cwc::trajectory_sample> sb;
  double t = 0.0;
  while (t < 20.0) {
    t = std::min(t + quantum, 20.0);
    q.run_to(t, 0.5, sb);
  }
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i)
    EXPECT_EQ(sa[i].values, sb[i].values) << "quantum=" << quantum;
}

INSTANTIATE_TEST_SUITE_P(QuantumSweep, quantum_param_test,
                         ::testing::Values(0.5, 1.0, 2.5, 7.0, 20.0));

TEST(CwcEngine, MatchesFlatEngineOnNeurospora) {
  // The compartmentalised and flattened Neurospora models are the same
  // CTMC; ensemble means must agree (they consume RNG differently, so
  // only statistically).
  const auto tree = models::make_neurospora_cwc({});
  const auto flat = models::make_neurospora_flat({});
  const double T = 30.0;

  stats::welford tree_m, flat_m;
  for (std::uint64_t i = 0; i < 48; ++i) {
    cwc::engine te(cwc::compiled_model::compile(tree), 21, i);
    std::vector<cwc::trajectory_sample> ts;
    te.run_to(T, 1.0, ts);
    tree_m.add(ts.back().values[0]);  // M at t=T

    cwc::flat_engine fe(cwc::compiled_model::compile(flat), 22, i);
    std::vector<cwc::trajectory_sample> fs;
    fe.run_to(T, 1.0, fs);
    flat_m.add(fs.back().values[0]);
  }
  // Ensemble std at T=30 is ~40; standard error with 48 trajectories ~6.
  EXPECT_NEAR(tree_m.mean(), flat_m.mean(), 20.0);
}

TEST(CwcEngine, StepAdvancesTimeAndState) {
  const auto m = models::make_neurospora_cwc({});
  cwc::engine eng(cwc::compiled_model::compile(m), 1, 0);
  const double t0 = eng.time();
  ASSERT_TRUE(eng.step());
  EXPECT_GT(eng.time(), t0);
  EXPECT_EQ(eng.steps(), 1u);
}

TEST(CwcEngine, StalledEngineStopsStepping) {
  cwc::model m;
  m.set_initial(cwc::parse_term(m, "2*A"));
  m.add_rule(cwc::parse_rule(m, "fuse", "top: 2*A -> B @ 1.0"));
  m.add_observable("B", m.species().id("B"));
  cwc::engine eng(cwc::compiled_model::compile(m), 1, 0);
  EXPECT_TRUE(eng.step());
  EXPECT_FALSE(eng.step());  // no more A pairs
  EXPECT_TRUE(eng.stalled());
}

TEST(ReactionNetwork, PropensityAndApply) {
  const auto net = models::make_michaelis_menten({});
  auto state = net.make_initial_state();
  const auto E = net.species().id("E");
  const auto S = net.species().id("S");
  const auto ES = net.species().id("ES");
  // bind: kf * E * S
  EXPECT_DOUBLE_EQ(net.propensity(0, state), 0.01 * 100 * 1000);
  net.apply(0, state);
  EXPECT_EQ(state.count(E), 99u);
  EXPECT_EQ(state.count(S), 999u);
  EXPECT_EQ(state.count(ES), 1u);
}

TEST(Ode, ExponentialDecayMatchesClosedForm) {
  cwc::reaction_network net;
  const auto x = net.declare_species("X");
  net.set_initial(x, 1000);
  net.add_reaction("decay", {{x, 1}}, {}, cwc::rate_law::mass_action(0.3));
  auto f = cwc::make_deriv(net);
  auto samples = cwc::rk4_integrate(f, {1000.0}, 0.0, 10.0, 0.001, 1.0);
  ASSERT_EQ(samples.size(), 11u);
  for (const auto& s : samples) {
    EXPECT_NEAR(s.values[0], 1000.0 * std::exp(-0.3 * s.time),
                1e-3 * 1000.0 * std::exp(-0.3 * s.time) + 1e-6);
  }
}

TEST(Ode, MassConservationInClosedSystem) {
  // A <-> B conserves A+B exactly.
  cwc::reaction_network net;
  const auto a = net.declare_species("A");
  const auto b = net.declare_species("B");
  net.set_initial(a, 100);
  net.add_reaction("fwd", {{a, 1}}, {{b, 1}}, cwc::rate_law::mass_action(1.0));
  net.add_reaction("rev", {{b, 1}}, {{a, 1}}, cwc::rate_law::mass_action(0.5));
  auto f = cwc::make_deriv(net);
  auto samples = cwc::rk4_integrate(f, {100.0, 0.0}, 0.0, 20.0, 0.01, 5.0);
  for (const auto& s : samples)
    EXPECT_NEAR(s.values[0] + s.values[1], 100.0, 1e-6);
  // Equilibrium: A/B = kr/kf -> A = 100/3.
  EXPECT_NEAR(samples.back().values[0], 100.0 / 3.0, 0.01);
}

TEST(Ode, NeurosporaOscillatesWithCircadianPeriod) {
  auto [f, y0] = models::make_neurospora_ode({});
  auto samples = cwc::rk4_integrate(f, y0, 0.0, 400.0, 0.01, 0.5);
  // Find peaks of M after the transient.
  std::vector<double> periods;
  double last_peak = -1.0;
  for (std::size_t i = 1; i + 1 < samples.size(); ++i) {
    if (samples[i].time < 150.0) continue;
    const double prev = samples[i - 1].values[0];
    const double cur = samples[i].values[0];
    const double next = samples[i + 1].values[0];
    if (cur > prev && cur >= next) {
      if (last_peak >= 0.0) periods.push_back(samples[i].time - last_peak);
      last_peak = samples[i].time;
    }
  }
  ASSERT_GE(periods.size(), 5u);
  double mean = 0.0;
  for (double p : periods) mean += p;
  mean /= static_cast<double>(periods.size());
  EXPECT_NEAR(mean, 21.5, 1.0);  // published circadian period
}

TEST(Models, CompartmentDemoLifecycle) {
  const auto m = models::make_compartment_demo({});
  cwc::engine eng(cwc::compiled_model::compile(m), 9, 0);
  std::vector<cwc::trajectory_sample> out;
  eng.run_to(60.0, 1.0, out);
  const auto& last = out.back();
  // A only decreases (consumed by vesicle formation), C only grows.
  EXPECT_LT(last.values[0], 100.0);
  EXPECT_GT(last.values[2], 0.0);
  // Observable scoping: B-in-vesicles <= total B.
  for (const auto& s : out) EXPECT_LE(s.values[3], s.values[1] + 1e-9);
}

TEST(Models, SchloglIsBistable) {
  const auto net = models::make_schlogl({});
  int low = 0, high = 0;
  for (std::uint64_t i = 0; i < 40; ++i) {
    cwc::flat_engine eng(cwc::compiled_model::compile(net), 77, i);
    std::vector<cwc::trajectory_sample> out;
    eng.run_to(15.0, 15.0, out);
    const double x = out.back().values[0];
    if (x < 300.0) ++low;
    if (x >= 300.0) ++high;
  }
  EXPECT_GT(low, 3);   // both attractors visited
  EXPECT_GT(high, 3);
}

}  // namespace
