// Tests for the Gibson-Bruck next-reaction engine and the whole-model text
// loader.
#include <gtest/gtest.h>

#include <sstream>

#include "cwc/cwc.hpp"
#include "models/models.hpp"
#include "stats/welford.hpp"

namespace {

TEST(NextReaction, DeterministicPerSeed) {
  const auto net = models::make_lotka_volterra({});
  cwc::next_reaction_engine a(cwc::compiled_model::compile(net), 4, 2);
  cwc::next_reaction_engine b(cwc::compiled_model::compile(net), 4, 2);
  std::vector<cwc::trajectory_sample> sa, sb;
  a.run_to(6.0, 0.5, sa);
  b.run_to(6.0, 0.5, sb);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i].values, sb[i].values);
}

TEST(NextReaction, BirthDeathStationaryMoments) {
  models::birth_death_params p;
  p.x0 = 50;
  const auto net = models::make_birth_death(p);
  stats::welford agg;
  for (std::uint64_t traj = 0; traj < 48; ++traj) {
    cwc::next_reaction_engine eng(cwc::compiled_model::compile(net), 11, traj);
    std::vector<cwc::trajectory_sample> out;
    eng.run_to(40.0, 0.5, out);
    for (const auto& s : out)
      if (s.time >= 10.0) agg.add(s.values[0]);
  }
  EXPECT_NEAR(agg.mean(), 50.0, 2.0);
  EXPECT_NEAR(agg.variance(), 50.0, 10.0);
}

TEST(NextReaction, AgreesWithDirectMethodStatistically) {
  const auto net = models::make_michaelis_menten({});
  const auto P = net.species().id("P");
  stats::welford nrm, direct;
  for (std::uint64_t i = 0; i < 32; ++i) {
    cwc::next_reaction_engine ne(cwc::compiled_model::compile(net), 7, i);
    std::vector<cwc::trajectory_sample> ns;
    ne.run_to(10.0, 10.0, ns);
    nrm.add(ns.back().values[P]);

    cwc::flat_engine de(cwc::compiled_model::compile(net), 8, i);
    std::vector<cwc::trajectory_sample> ds;
    de.run_to(10.0, 10.0, ds);
    direct.add(ds.back().values[P]);
  }
  EXPECT_NEAR(nrm.mean(), direct.mean(), 0.06 * direct.mean());
}

TEST(NextReaction, StepCountMatchesDirectOnAverage) {
  // Both methods simulate the same CTMC: expected event counts agree.
  const auto net = models::make_sir({});
  double nrm_steps = 0.0, direct_steps = 0.0;
  for (std::uint64_t i = 0; i < 24; ++i) {
    cwc::next_reaction_engine ne(cwc::compiled_model::compile(net), 3, i);
    std::vector<cwc::trajectory_sample> s1;
    ne.run_to(200.0, 200.0, s1);
    nrm_steps += static_cast<double>(ne.steps());

    cwc::flat_engine de(cwc::compiled_model::compile(net), 9, i);
    std::vector<cwc::trajectory_sample> s2;
    de.run_to(200.0, 200.0, s2);
    direct_steps += static_cast<double>(de.steps());
  }
  EXPECT_NEAR(nrm_steps, direct_steps, 0.15 * direct_steps);
}

TEST(NextReaction, QuantumComposable) {
  const auto net = models::make_lotka_volterra({});
  cwc::next_reaction_engine one(cwc::compiled_model::compile(net), 21, 0);
  std::vector<cwc::trajectory_sample> sa;
  one.run_to(6.0, 0.25, sa);

  cwc::next_reaction_engine chunked(cwc::compiled_model::compile(net), 21, 0);
  std::vector<cwc::trajectory_sample> sb;
  for (double t = 0.5; t <= 6.0 + 1e-9; t += 0.5) chunked.run_to(t, 0.25, sb);

  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i)
    EXPECT_EQ(sa[i].values, sb[i].values) << "t=" << sa[i].time;
}

TEST(NextReaction, StallsWhenExhausted) {
  cwc::reaction_network net;
  const auto a = net.declare_species("A");
  const auto b = net.declare_species("B");
  net.set_initial(a, 3);
  net.add_reaction("decay", {{a, 1}}, {{b, 1}}, cwc::rate_law::mass_action(1.0));
  cwc::next_reaction_engine eng(cwc::compiled_model::compile(net), 1, 0);
  EXPECT_TRUE(eng.step());
  EXPECT_TRUE(eng.step());
  EXPECT_TRUE(eng.step());
  EXPECT_FALSE(eng.step());
  EXPECT_TRUE(eng.stalled());
  EXPECT_EQ(eng.state().count(b), 3u);
}

// ------------------------------ model files ------------------------------

constexpr const char* kDoc = R"(
# toy transport model
compartments cell nucleus
init (cell: | 10*M 10*FC (nucleus: | 10*FN))
rule translate   cell: M -> M + FC @ 0.5
rule import      cell: FC + (nucleus: | ) -> (nucleus: | FN) @ 0.5
rule export      cell: (nucleus: | FN) -> FC + (nucleus: | ) @ 0.6
observable M
observable FN @ nucleus
)";

TEST(ModelFile, LoadsCompleteDocument) {
  const auto m = cwc::load_model(kDoc);
  EXPECT_EQ(m.rules().size(), 3u);
  ASSERT_EQ(m.observables().size(), 2u);
  EXPECT_EQ(m.observables()[1].name, "FN@nucleus");
  EXPECT_DOUBLE_EQ(m.observe(m.initial(), 0), 10.0);
  EXPECT_DOUBLE_EQ(m.observe(m.initial(), 1), 10.0);

  // The loaded model actually simulates.
  cwc::engine eng(cwc::compiled_model::compile(m), 5, 0);
  std::vector<cwc::trajectory_sample> out;
  eng.run_to(5.0, 1.0, out);
  EXPECT_EQ(out.size(), 6u);
}

TEST(ModelFile, StreamOverload) {
  std::istringstream in(kDoc);
  const auto m = cwc::load_model(in);
  EXPECT_EQ(m.rules().size(), 3u);
}

TEST(ModelFile, ErrorsNameTheLine) {
  try {
    cwc::load_model("init 5*A\nrule broken top: A -> @ 1\n");
    FAIL() << "expected parse_error";
  } catch (const cwc::parse_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ModelFile, RequiresInit) {
  EXPECT_THROW(cwc::load_model("rule r top: A -> B @ 1\n"), cwc::parse_error);
}

TEST(ModelFile, RejectsDuplicateInitAndUnknownKeyword) {
  EXPECT_THROW(cwc::load_model("init A\ninit B\n"), cwc::parse_error);
  EXPECT_THROW(cwc::load_model("init A\nfrobnicate x\n"), cwc::parse_error);
}

}  // namespace
