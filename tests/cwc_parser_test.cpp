// Tests for the CWC concrete syntax: term parsing, printing round-trips,
// rule parsing (transport, creation, dissolution, rate functions), error
// reporting, and the whole-model text loader.
#include <gtest/gtest.h>

#include <sstream>

#include "cwc/cwc.hpp"

namespace {

TEST(TermParser, AtomsWithMultiplicity) {
  cwc::model m;
  auto t = cwc::parse_term(m, "3*A B 2*C");
  EXPECT_EQ(t->content().count(m.species().id("A")), 3u);
  EXPECT_EQ(t->content().count(m.species().id("B")), 1u);
  EXPECT_EQ(t->content().count(m.species().id("C")), 2u);
  EXPECT_EQ(t->num_children(), 0u);
}

TEST(TermParser, NestedCompartments) {
  cwc::model m;
  auto t = cwc::parse_term(m, "A (cell: m | 2*B (nucleus: | 5*F))");
  ASSERT_EQ(t->num_children(), 1u);
  const auto& cell = t->child(0);
  EXPECT_EQ(cell.type(), m.compartment_types().id("cell"));
  EXPECT_EQ(cell.wrap().count(m.species().id("m")), 1u);
  EXPECT_EQ(cell.content().count(m.species().id("B")), 2u);
  ASSERT_EQ(cell.num_children(), 1u);
  EXPECT_EQ(cell.child(0).content().count(m.species().id("F")), 5u);
}

TEST(TermParser, EmptyTermAndWhitespace) {
  cwc::model m;
  auto t = cwc::parse_term(m, "   ");
  EXPECT_EQ(t->content().total(), 0u);
  EXPECT_EQ(t->num_children(), 0u);
}

TEST(TermParser, PrintParseRoundTrip) {
  cwc::model m;
  const std::string src = "2*A (cell: m | B (nucleus: | 3*F)) C";
  auto t = cwc::parse_term(m, src);
  const std::string printed =
      cwc::to_string(*t, m.species(), m.compartment_types());
  auto t2 = cwc::parse_term(m, printed);
  EXPECT_TRUE(t->equals(*t2)) << "printed: " << printed;
}

TEST(TermParser, ErrorsCarryPosition) {
  cwc::model m;
  try {
    cwc::parse_term(m, "A (cell m | B)");  // missing ':'
    FAIL() << "expected parse_error";
  } catch (const cwc::parse_error& e) {
    EXPECT_GT(e.position, 0u);
  }
  EXPECT_THROW(cwc::parse_term(m, "A )"), cwc::parse_error);
  EXPECT_THROW(cwc::parse_term(m, "(c: |"), cwc::parse_error);
  EXPECT_THROW(cwc::parse_term(m, "3 A"), cwc::parse_error);  // missing '*'
}

TEST(RuleParser, MassActionBasics) {
  cwc::model m;
  auto r = cwc::parse_rule(m, "dimer", "top: 2*A -> B @ 0.25");
  EXPECT_EQ(r.context(), cwc::top_compartment);
  EXPECT_EQ(r.reactants().count(m.species().id("A")), 2u);
  EXPECT_EQ(r.products().count(m.species().id("B")), 1u);
  EXPECT_TRUE(r.law().is_mass_action());
  EXPECT_DOUBLE_EQ(r.law().constant(), 0.25);
}

TEST(RuleParser, EmptySidesWithZero) {
  cwc::model m;
  auto birth = cwc::parse_rule(m, "birth", "top: 0 -> X @ 5.0");
  EXPECT_EQ(birth.reactants().total(), 0u);
  EXPECT_EQ(birth.products().count(m.species().id("X")), 1u);
  auto death = cwc::parse_rule(m, "death", "top: X -> 0 @ 1.0");
  EXPECT_EQ(death.products().total(), 0u);
}

TEST(RuleParser, AnyContext) {
  cwc::model m;
  auto r = cwc::parse_rule(m, "any", "*: A -> B @ 1");
  EXPECT_EQ(r.context(), cwc::any_compartment);
}

TEST(RuleParser, TransportKeepsChild) {
  cwc::model m;
  auto r = cwc::parse_rule(m, "in", "cell: A + (nucleus: | ) -> (nucleus: | B) @ 0.5");
  ASSERT_TRUE(r.child_pattern().has_value());
  EXPECT_EQ(r.child_pattern()->type, m.compartment_types().id("nucleus"));
  EXPECT_EQ(r.child_products().count(m.species().id("B")), 1u);
  EXPECT_EQ(r.fate(), cwc::child_fate::keep);
}

TEST(RuleParser, TransportOutConsumesFromChild) {
  cwc::model m;
  auto r = cwc::parse_rule(m, "out", "cell: (nucleus: | F) -> G + (nucleus: | ) @ 0.7");
  ASSERT_TRUE(r.child_pattern().has_value());
  EXPECT_EQ(r.child_pattern()->content_req.count(m.species().id("F")), 1u);
  EXPECT_EQ(r.products().count(m.species().id("G")), 1u);
  EXPECT_EQ(r.fate(), cwc::child_fate::keep);
}

TEST(RuleParser, DissolveDirective) {
  cwc::model m;
  auto r = cwc::parse_rule(m, "burst",
                           "top: (vesicle: m | 4*B) -> 4*C + !dissolve @ 0.5");
  EXPECT_EQ(r.fate(), cwc::child_fate::dissolve);
  EXPECT_EQ(r.child_pattern()->wrap_req.count(m.species().id("m")), 1u);
  EXPECT_EQ(r.child_pattern()->content_req.count(m.species().id("B")), 4u);
}

TEST(RuleParser, OmittedChildMeansRemove) {
  cwc::model m;
  auto r = cwc::parse_rule(m, "kill", "top: (cell: | ) -> X @ 0.1");
  EXPECT_EQ(r.fate(), cwc::child_fate::remove);
}

TEST(RuleParser, CreateCompartment) {
  cwc::model m;
  auto r = cwc::parse_rule(m, "form", "top: 2*A -> (vesicle: m | B) @ 0.01");
  EXPECT_FALSE(r.child_pattern().has_value());
  ASSERT_EQ(r.new_compartments().size(), 1u);
  EXPECT_EQ(r.new_compartments()[0].type, m.compartment_types().id("vesicle"));
  EXPECT_EQ(r.new_compartments()[0].wrap.count(m.species().id("m")), 1u);
}

TEST(RuleParser, RateFunctions) {
  cwc::model m;
  auto mm = cwc::parse_rule(m, "deg", "cell: M -> 0 @ mm(50.5, 50, M)");
  EXPECT_FALSE(mm.law().is_mass_action());

  auto hill = cwc::parse_rule(
      m, "tx", "cell: (nucleus: | ) -> (nucleus: | ) + M @ hill_rep(160, 100, 4, FN@child)");
  ASSERT_TRUE(hill.child_pattern().has_value());
  EXPECT_EQ(hill.products().count(m.species().id("M")), 1u);

  // Functional check: driver in child halves the rate at x == K.
  cwc::multiset local;
  cwc::multiset child;
  child.add(m.species().id("FN"), 100);
  cwc::rate_ctx ctx{local, &child, 1.0};
  EXPECT_DOUBLE_EQ(hill.law().evaluate(ctx), 80.0);
}

TEST(RuleParser, Errors) {
  cwc::model m;
  EXPECT_THROW(cwc::parse_rule(m, "r", "top: A -> B"), cwc::parse_error);  // no rate
  EXPECT_THROW(cwc::parse_rule(m, "r", "top: A @ 1"), cwc::parse_error);   // no arrow
  EXPECT_THROW(cwc::parse_rule(m, "r", "top: (a:|) + (b:|) -> X @ 1"),
               cwc::parse_error);  // two patterns
  EXPECT_THROW(cwc::parse_rule(m, "r", "top: !dissolve -> X @ 1"),
               cwc::parse_error);  // dissolve on LHS
  EXPECT_THROW(cwc::parse_rule(m, "r", "top: A -> X @ frobnicate(1)"),
               cwc::parse_error);  // unknown rate fn
  EXPECT_THROW(cwc::parse_rule(m, "r", "top: A -> !dissolve @ 1"),
               cwc::parse_error);  // dissolve without pattern
}

TEST(RuleParser, ParsedRuleDrivesEngine) {
  // Full loop: build a model from text, run the SSA, check mass movement.
  cwc::model m;
  m.set_initial(cwc::parse_term(m, "100*A"));
  m.add_rule(cwc::parse_rule(m, "decay", "top: A -> B @ 1.0"));
  m.add_observable("A", m.species().id("A"));
  m.add_observable("B", m.species().id("B"));

  cwc::engine eng(cwc::compiled_model::compile(m), 1, 0);
  std::vector<cwc::trajectory_sample> out;
  eng.run_to(30.0, 1.0, out);
  EXPECT_TRUE(eng.stalled());
  const auto& last = out.back();
  EXPECT_DOUBLE_EQ(last.values[0], 0.0);
  EXPECT_DOUBLE_EQ(last.values[1], 100.0);
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
