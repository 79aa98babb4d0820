// Tests for the stochastic engines: determinism, quantum-composability (the
// property quantum scheduling relies on), CWC-vs-flat equivalence, and the
// ODE baseline. cwc_exact_test.cpp checks the engines against exact laws.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cwc/cwc.hpp"
#include "models/models.hpp"
#include "stats/welford.hpp"
#include "util/check.hpp"

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

TEST(FlatEngine, MatchesOneCompartmentTreeEngineBitForBit) {
  // A flat network and the same network written as a one-compartment tree
  // model are one CTMC, and both engines step it with the same arithmetic:
  // reactant factors in declaration order, the left-to-right propensity
  // fold, the selection scan and one exponential plus one uniform draw per
  // step. Every clock value, sample and step count must therefore be
  // equal, which makes each engine the other's oracle when its step path
  // is rewritten. The twins cover every law kind: mass action, Michaelis-
  // Menten, Hill repression and activation, and a custom law, which the
  // flat engine evaluates through rate_law::evaluate and the tree engine
  // through its rate tape (the custom law through its callable, over the
  // tape's combinatorics). Single steps from t = 0 compare the clock while
  // it still holds nearly every bit of each draw over the propensity total,
  // so a one-ulp change in a total (an FMA contraction in the fold) shows.
  // The quantum does not divide the sample period, so draws deferred past a
  // quantum horizon are kept on both sides too.
  cwc::reaction_network hill;
  const auto X = hill.declare_species("X");
  hill.add_reaction("make", {}, {{X, 1}},
                    cwc::rate_law::hill_repression(30.0, 10.0, 2.0, X));
  hill.add_reaction("decay", {{X, 1}}, {}, cwc::rate_law::mass_action(1.0));

  // Michaelis-Menten conversion of a substrate fed at a constant rate.
  cwc::reaction_network mm;
  const auto S = mm.declare_species("S");
  const auto P = mm.declare_species("P");
  mm.add_reaction("feed", {}, {{S, 1}}, cwc::rate_law::mass_action(40.0));
  mm.add_reaction("convert", {{S, 1}}, {{P, 1}},
                  cwc::rate_law::michaelis_menten(100.0, 30.0, S));
  mm.add_reaction("clear", {{P, 1}}, {}, cwc::rate_law::mass_action(1.0));

  // Hill-activated birth whose activator starts at zero, so the law's
  // zero-driver branch runs before the activator appears.
  cwc::reaction_network act;
  const auto A = act.declare_species("A");
  const auto Y = act.declare_species("Y");
  act.add_reaction("a-make", {}, {{A, 1}}, cwc::rate_law::mass_action(5.0));
  act.add_reaction("a-decay", {{A, 1}}, {}, cwc::rate_law::mass_action(0.2));
  act.add_reaction("activate", {}, {{Y, 1}},
                   cwc::rate_law::hill_activation(40.0, 15.0, 2.0, A));
  act.add_reaction("y-decay", {{Y, 1}}, {}, cwc::rate_law::mass_action(1.0));

  // A custom law over a 2*M pattern that reads ctx.combinations and a
  // count from ctx.local: the flat engine hands it its state, the tree
  // engine the compartment's content, both with the same combinatorics.
  const auto dimer_law = [](cwc::species_id d) {
    return cwc::rate_law::custom([d](const cwc::rate_ctx& ctx) {
      return 0.02 * ctx.combinations /
             (1.0 + 0.1 * static_cast<double>(ctx.local.count(d)));
    });
  };
  cwc::reaction_network dimer;
  const auto M = dimer.declare_species("M");
  const auto D = dimer.declare_species("D");
  dimer.add_reaction("m-make", {}, {{M, 1}}, cwc::rate_law::mass_action(30.0));
  dimer.add_reaction("dimerize", {{M, 2}}, {{D, 1}}, dimer_law(D));
  dimer.add_reaction("d-decay", {{D, 1}}, {}, cwc::rate_law::mass_action(0.5));
  // The tree twin is built by hand (model texts have no custom laws), its
  // rules in the network's order: the fold and the selection scan follow it.
  cwc::model dimer_tree;
  const auto tm = dimer_tree.declare_species("M");
  const auto td = dimer_tree.declare_species("D");
  dimer_tree.set_initial(std::make_unique<cwc::term>(cwc::top_compartment));
  dimer_tree.add_rule(
      cwc::parse_rule(dimer_tree, "m-make", "top: 0 -> M @ 30"));
  dimer_tree.add_rule(
      cwc::rule("dimerize", cwc::top_compartment, dimer_law(td))
          .consume(tm, 2)
          .produce(td));
  dimer_tree.add_rule(
      cwc::parse_rule(dimer_tree, "d-decay", "top: D -> 0 @ 0.5"));
  dimer_tree.add_observable("M", tm);
  dimer_tree.add_observable("D", td);

  struct twin {
    const char* name;
    cwc::reaction_network net;
    cwc::model tree;  ///< observables list the network's species in order
  };
  const twin twins[] = {
      {"schlogl", models::make_schlogl({}), cwc::load_model(R"(
        init 250*X
        rule autocatalysis top: 2*X -> 3*X @ 3e-2
        rule reverse top: 3*X -> 2*X @ 1e-4
        rule inflow top: 0 -> X @ 200
        rule outflow top: X -> 0 @ 3.5
        observable X
      )")},
      {"enzyme", models::make_michaelis_menten({}), cwc::load_model(R"(
        init 100*E 1000*S
        rule bind top: E + S -> ES @ 0.01
        rule unbind top: ES -> E + S @ 1
        rule catalyse top: ES -> E + P @ 1
        observable E
        observable S
        observable ES
        observable P
      )")},
      {"lotka_volterra", models::make_lotka_volterra({}), cwc::load_model(R"(
        init 200*prey 80*predator
        rule prey-birth top: prey -> 2*prey @ 1
        rule predation top: prey + predator -> 2*predator @ 0.005
        rule predator-death top: predator -> 0 @ 0.6
        observable prey
        observable predator
      )")},
      {"birth_death", models::make_birth_death({}), cwc::load_model(R"(
        init
        rule birth top: 0 -> X @ 50
        rule death top: X -> 0 @ 1
        observable X
      )")},
      {"hill_repressed_birth", hill, cwc::load_model(R"(
        init
        rule make top: 0 -> X @ hill_rep(30, 10, 2, X)
        rule decay top: X -> 0 @ 1
        observable X
      )")},
      {"michaelis_menten_law", mm, cwc::load_model(R"(
        init
        rule feed top: 0 -> S @ 40
        rule convert top: S -> P @ mm(100, 30, S)
        rule clear top: P -> 0 @ 1
        observable S
        observable P
      )")},
      {"hill_activated_birth", act, cwc::load_model(R"(
        init
        rule a-make top: 0 -> A @ 5
        rule a-decay top: A -> 0 @ 0.2
        rule activate top: 0 -> Y @ hill_act(40, 15, 2, A)
        rule y-decay top: Y -> 0 @ 1
        observable A
        observable Y
      )")},
      {"custom_dimerization", dimer, std::move(dimer_tree)},
  };

  constexpr double kEnd = 5.0, kQuantum = 0.7, kPeriod = 0.25;
  constexpr int kSteps = 100;
  constexpr std::uint64_t kClockTrajectories = 300;
  for (const twin& tw : twins) {
    const auto flat = cwc::compiled_model::compile(tw.net);
    const auto tree = cwc::compiled_model::compile(tw.tree);
    for (const std::uint64_t seed : {1, 2, 3}) {
      for (std::uint64_t id = 0; id < kClockTrajectories; ++id) {
        SCOPED_TRACE(::testing::Message() << tw.name << " seed " << seed
                                          << " trajectory " << id);
        cwc::flat_engine fe(flat, seed, id);
        cwc::engine te(tree, seed, id);
        for (int k = 0; k < kSteps; ++k) {
          ASSERT_EQ(fe.step(), te.step());
          ASSERT_EQ(fe.time(), te.time()) << "step " << k;
        }
      }
      for (std::uint64_t id = 0; id < 30; ++id) {
        SCOPED_TRACE(::testing::Message() << tw.name << " seed " << seed
                                          << " trajectory " << id);
        cwc::flat_engine fe(flat, seed, id);
        cwc::engine te(tree, seed, id);
        std::vector<cwc::trajectory_sample> fs, ts;
        for (double t = 0.0; t < kEnd;) {
          t = std::min(t + kQuantum, kEnd);
          fe.run_to(t, kPeriod, fs);
          te.run_to(t, kPeriod, ts);
        }
        ASSERT_EQ(fs.size(), ts.size());
        for (std::size_t k = 0; k < fs.size(); ++k) {
          ASSERT_EQ(fs[k].time, ts[k].time) << "sample " << k;
          ASSERT_EQ(fs[k].values, ts[k].values) << "at t=" << fs[k].time;
        }
        ASSERT_EQ(fe.steps(), te.steps());
      }
    }
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

TEST(ReactionNetwork, RejectsUndeclaredAndRepeatedReactantSpecies) {
  // flat_engine fires by unchecked updates to its count row, which is safe
  // only for declared species and reactants listed once.
  cwc::reaction_network net;
  const auto a = net.declare_species("A");
  const auto law = cwc::rate_law::mass_action(1.0);
  EXPECT_THROW(net.add_reaction("ghost-in", {{a + 1, 1}}, {}, law),
               util::precondition_error);
  EXPECT_THROW(net.add_reaction("ghost-out", {{a, 1}}, {{a + 1, 1}}, law),
               util::precondition_error);
  EXPECT_THROW(net.add_reaction("twice", {{a, 1}, {a, 1}}, {}, law),
               util::precondition_error);
  EXPECT_EQ(net.add_reaction("pair", {{a, 2}}, {{a, 1}, {a, 1}}, law), 0u);
}

TEST(ReactionNetwork, RejectsUndeclaredInitialAndDriverSpecies) {
  // The flat engine's count row holds the declared species only: an initial
  // count or a Michaelis-Menten/Hill driver past it would be dropped or read
  // out of bounds.
  cwc::reaction_network net;
  const auto a = net.declare_species("A");
  const auto expect_names = [](const char* id, const auto& call) {
    SCOPED_TRACE(id);
    try {
      call();
      ADD_FAILURE() << "accepted";
    } catch (const util::precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find(id), std::string::npos) << e.what();
    }
  };
  expect_names("species 7", [&] { net.set_initial(7, 3); });
  expect_names("species 6", [&] {
    net.add_reaction("mm", {{a, 1}}, {},
                     cwc::rate_law::michaelis_menten(1.0, 2.0, 6));
  });
  expect_names("species 5", [&] {
    net.add_reaction("rep", {}, {{a, 1}},
                     cwc::rate_law::hill_repression(1.0, 2.0, 2.0, 5));
  });
  expect_names("species 4", [&] {
    net.add_reaction("act", {}, {{a, 1}},
                     cwc::rate_law::hill_activation(1.0, 2.0, 2.0, 4));
  });
  EXPECT_TRUE(net.reactions().empty());
  net.set_initial(a, 3);
  EXPECT_EQ(net.add_reaction("mm", {{a, 1}}, {},
                             cwc::rate_law::michaelis_menten(1.0, 2.0, a)),
            0u);
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
