// Tests for CWC data structures and rewrite semantics: multisets,
// compartment trees, rate laws, and rule matching/application. Rule
// matches and their propensities come from the test-side matcher
// (match_oracle.hpp), which rate_tape_test holds the engines' rate tape to.
#include <gtest/gtest.h>

#include "cwc/cwc.hpp"
#include "match_oracle.hpp"

namespace {

TEST(Multiset, AddRemoveCount) {
  cwc::multiset m;
  m.add(0, 3);
  m.add(2, 1);
  EXPECT_EQ(m.count(0), 3u);
  EXPECT_EQ(m.count(1), 0u);
  EXPECT_EQ(m.count(2), 1u);
  EXPECT_EQ(m.total(), 4u);
  EXPECT_EQ(m.distinct(), 2u);
  m.remove(0, 2);
  EXPECT_EQ(m.count(0), 1u);
  EXPECT_THROW(m.remove(0, 5), util::precondition_error);
}

TEST(Multiset, ContainsAndRemoveAll) {
  cwc::multiset a, b;
  a.add(0, 5);
  a.add(1, 2);
  b.add(0, 3);
  EXPECT_TRUE(a.contains(b));
  EXPECT_FALSE(b.contains(a));
  a.remove_all(b);
  EXPECT_EQ(a.count(0), 2u);
  EXPECT_THROW(a.remove_all(b), util::precondition_error);  // only 2 left
}

TEST(Multiset, CombinationsMatchBinomials) {
  cwc::multiset state, pat;
  state.add(0, 10);
  state.add(1, 4);
  pat.add(0, 2);
  pat.add(1, 1);
  // C(10,2) * C(4,1)
  EXPECT_DOUBLE_EQ(match_oracle::combinations(state, pat), 45.0 * 4.0);
  pat.add(2, 1);  // absent species
  EXPECT_DOUBLE_EQ(match_oracle::combinations(state, pat), 0.0);
}

TEST(Multiset, Choose) {
  EXPECT_DOUBLE_EQ(cwc::choose(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(cwc::choose(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(cwc::choose(3, 5), 0.0);
  EXPECT_DOUBLE_EQ(cwc::choose(60, 3), 34220.0);
}

TEST(SymbolTable, InternAndLookup) {
  cwc::symbol_table t;
  const auto a = t.intern("A");
  const auto b = t.intern("B");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.intern("A"), a);  // idempotent
  EXPECT_EQ(t.id("B"), b);
  EXPECT_EQ(t.name(a), "A");
  EXPECT_TRUE(t.contains("A"));
  EXPECT_FALSE(t.contains("C"));
  EXPECT_THROW(t.id("C"), std::out_of_range);
  EXPECT_THROW(t.name(99), std::out_of_range);
}

TEST(Term, TreeConstructionAndCounts) {
  cwc::term root(cwc::top_compartment);
  root.content().add(0, 5);
  auto child = std::make_unique<cwc::compartment>(1u);
  child->content().add(0, 3);
  child->wrap().add(1, 1);
  auto grand = std::make_unique<cwc::compartment>(2u);
  grand->content().add(0, 2);
  child->add_child(std::move(grand));
  root.add_child(std::move(child));

  EXPECT_EQ(root.total_count(0), 10u);
  EXPECT_EQ(root.total_count(1), 1u);
  EXPECT_EQ(root.count_in_type(0, 2), 2u);
  EXPECT_EQ(root.tree_size(), 3u);
  EXPECT_EQ(root.depth(), 3u);
}

TEST(Term, CloneIsDeepAndEqual) {
  cwc::term root(cwc::top_compartment);
  root.content().add(0, 1);
  auto child = std::make_unique<cwc::compartment>(1u);
  child->content().add(0, 7);
  root.add_child(std::move(child));

  auto copy = root.clone();
  EXPECT_TRUE(root.equals(*copy));
  copy->child(0).content().add(0, 1);
  EXPECT_FALSE(root.equals(*copy));
  EXPECT_EQ(root.child(0).content().count(0), 7u);  // original untouched
}

TEST(Term, RemoveChildPreservesOrder) {
  cwc::term root(cwc::top_compartment);
  for (unsigned i = 1; i <= 3; ++i)
    root.add_child(std::make_unique<cwc::compartment>(i));
  auto removed = root.remove_child(1);
  EXPECT_EQ(removed->type(), 2u);
  ASSERT_EQ(root.num_children(), 2u);
  EXPECT_EQ(root.child(0).type(), 1u);
  EXPECT_EQ(root.child(1).type(), 3u);
}

TEST(RateLaw, MassAction) {
  auto law = cwc::rate_law::mass_action(0.5);
  cwc::multiset local;
  local.add(0, 4);
  cwc::rate_ctx ctx{local, nullptr, 6.0};
  EXPECT_DOUBLE_EQ(law.evaluate(ctx), 3.0);
  EXPECT_TRUE(law.is_mass_action());
  EXPECT_DOUBLE_EQ(law.constant(), 0.5);
}

TEST(RateLaw, MichaelisMenten) {
  auto law = cwc::rate_law::michaelis_menten(10.0, 5.0, 0);
  cwc::multiset local;
  local.add(0, 5);
  cwc::rate_ctx ctx{local, nullptr, 1.0};
  EXPECT_DOUBLE_EQ(law.evaluate(ctx), 5.0);  // 10*5/(5+5)
  local.set(0, 0);
  EXPECT_DOUBLE_EQ(law.evaluate(ctx), 0.0);
}

TEST(RateLaw, HillRepressionReadsChild) {
  auto law = cwc::rate_law::hill_repression(8.0, 10.0, 2.0, 0, true);
  cwc::multiset local, child;
  child.add(0, 10);  // x == K -> half repression
  cwc::rate_ctx ctx{local, &child, 1.0};
  EXPECT_DOUBLE_EQ(law.evaluate(ctx), 4.0);
  cwc::rate_ctx no_child{local, nullptr, 1.0};
  EXPECT_DOUBLE_EQ(law.evaluate(no_child), 8.0);  // x = 0 -> unrepressed
}

TEST(RateLaw, CustomCallable) {
  auto law = cwc::rate_law::custom(
      [](const cwc::rate_ctx& ctx) { return 2.0 * ctx.combinations; });
  cwc::multiset local;
  cwc::rate_ctx ctx{local, nullptr, 3.0};
  EXPECT_DOUBLE_EQ(law.evaluate(ctx), 6.0);
  EXPECT_THROW(law.evaluate_continuous({}, 1.0), std::logic_error);
}

TEST(Rule, SimpleMassActionMatchAndApply) {
  // 2A -> B in top.
  cwc::rule r("dimer", cwc::top_compartment, cwc::rate_law::mass_action(0.1));
  r.consume(0, 2);
  r.produce(1, 1);

  cwc::term host(cwc::top_compartment);
  host.content().add(0, 4);
  const auto matches = match_oracle::enumerate(r, host);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_DOUBLE_EQ(matches[0].propensity, 0.1 * 6.0);  // C(4,2)=6

  r.apply(host, matches[0]);
  EXPECT_EQ(host.content().count(0), 2u);
  EXPECT_EQ(host.content().count(1), 1u);
}

TEST(Rule, NoMatchWhenReactantsMissing) {
  cwc::rule r("r", cwc::top_compartment, cwc::rate_law::mass_action(1.0));
  r.consume(0, 3);
  cwc::term host(cwc::top_compartment);
  host.content().add(0, 2);
  EXPECT_TRUE(match_oracle::enumerate(r, host).empty());
  EXPECT_DOUBLE_EQ(match_oracle::total_propensity(r, host), 0.0);
}

TEST(Rule, ChildPatternEnumeratesPerChild) {
  // top: (c: | A) -> per-child matches with combinatorics.
  cwc::rule r("t", cwc::top_compartment, cwc::rate_law::mass_action(1.0));
  cwc::comp_pattern pat;
  pat.type = 1;
  pat.content_req.add(0, 1);
  r.match_child(pat);

  cwc::term host(cwc::top_compartment);
  auto c1 = std::make_unique<cwc::compartment>(1u);
  c1->content().add(0, 2);
  auto c2 = std::make_unique<cwc::compartment>(1u);
  c2->content().add(0, 5);
  auto c3 = std::make_unique<cwc::compartment>(2u);  // wrong type
  c3->content().add(0, 9);
  host.add_child(std::move(c1));
  host.add_child(std::move(c2));
  host.add_child(std::move(c3));

  const auto matches = match_oracle::enumerate(r, host);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_DOUBLE_EQ(matches[0].propensity, 2.0);
  EXPECT_DOUBLE_EQ(matches[1].propensity, 5.0);
  EXPECT_DOUBLE_EQ(match_oracle::total_propensity(r, host), 7.0);
}

TEST(Rule, TransportInAndOut) {
  // in:  A + (c:|) -> (c:| B)
  cwc::rule in("in", cwc::top_compartment, cwc::rate_law::mass_action(1.0));
  in.consume(0);
  in.match_child(cwc::comp_pattern{1, {}, {}});
  in.produce_in_child(1);

  cwc::term host(cwc::top_compartment);
  host.content().add(0, 1);
  host.add_child(std::make_unique<cwc::compartment>(1u));

  auto m = match_oracle::enumerate(in, host);
  ASSERT_EQ(m.size(), 1u);
  in.apply(host, m[0]);
  EXPECT_EQ(host.content().count(0), 0u);
  EXPECT_EQ(host.child(0).content().count(1), 1u);

  // out: (c:| B) -> A (consume_from_child adds to the pattern).
  cwc::rule out("out", cwc::top_compartment, cwc::rate_law::mass_action(1.0));
  out.match_child(cwc::comp_pattern{1, {}, {}});
  out.consume_from_child(1);
  out.produce(0);
  auto m2 = match_oracle::enumerate(out, host);
  ASSERT_EQ(m2.size(), 1u);
  out.apply(host, m2[0]);
  EXPECT_EQ(host.content().count(0), 1u);
  EXPECT_EQ(host.child(0).content().count(1), 0u);
}

TEST(Rule, WrapRequirementGatesMatch) {
  cwc::rule r("w", cwc::top_compartment, cwc::rate_law::mass_action(1.0));
  cwc::comp_pattern pat;
  pat.type = 1;
  pat.wrap_req.add(3, 1);
  r.match_child(pat);

  cwc::term host(cwc::top_compartment);
  auto bare = std::make_unique<cwc::compartment>(1u);
  auto wrapped = std::make_unique<cwc::compartment>(1u);
  wrapped->wrap().add(3, 1);
  host.add_child(std::move(bare));
  host.add_child(std::move(wrapped));

  const auto matches = match_oracle::enumerate(r, host);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(*matches[0].child_index, 1u);
}

TEST(Rule, CreateCompartment) {
  cwc::rule r("make", cwc::top_compartment, cwc::rate_law::mass_action(1.0));
  r.consume(0, 2);
  cwc::comp_product prod;
  prod.type = 1;
  prod.wrap.add(2, 1);
  prod.content.add(1, 1);
  r.create_compartment(prod);

  cwc::term host(cwc::top_compartment);
  host.content().add(0, 2);
  r.apply(host, match_oracle::enumerate(r, host)[0]);
  ASSERT_EQ(host.num_children(), 1u);
  EXPECT_EQ(host.child(0).type(), 1u);
  EXPECT_EQ(host.child(0).wrap().count(2), 1u);
  EXPECT_EQ(host.child(0).content().count(1), 1u);
}

TEST(Rule, DissolveReleasesContentWrapAndGrandchildren) {
  cwc::rule r("burst", cwc::top_compartment, cwc::rate_law::mass_action(1.0));
  cwc::comp_pattern pat;
  pat.type = 1;
  pat.content_req.add(0, 1);
  r.match_child(pat);
  r.produce(2, 1);
  r.set_child_fate(cwc::child_fate::dissolve);

  cwc::term host(cwc::top_compartment);
  auto child = std::make_unique<cwc::compartment>(1u);
  child->content().add(0, 3);
  child->wrap().add(3, 1);
  child->add_child(std::make_unique<cwc::compartment>(2u));
  host.add_child(std::move(child));

  r.apply(host, match_oracle::enumerate(r, host)[0]);
  EXPECT_EQ(host.content().count(0), 2u);  // 3 - 1 consumed, rest released
  EXPECT_EQ(host.content().count(2), 1u);  // product
  EXPECT_EQ(host.content().count(3), 1u);  // wrap released
  ASSERT_EQ(host.num_children(), 1u);      // grandchild floated up
  EXPECT_EQ(host.child(0).type(), 2u);
}

TEST(Rule, RemoveDestroysSubtree) {
  cwc::rule r("kill", cwc::top_compartment, cwc::rate_law::mass_action(1.0));
  r.match_child(cwc::comp_pattern{1, {}, {}});
  r.set_child_fate(cwc::child_fate::remove);

  cwc::term host(cwc::top_compartment);
  auto child = std::make_unique<cwc::compartment>(1u);
  child->content().add(0, 100);
  host.add_child(std::move(child));
  r.apply(host, match_oracle::enumerate(r, host)[0]);
  EXPECT_EQ(host.num_children(), 0u);
  EXPECT_EQ(host.total_count(0), 0u);
}

TEST(Rule, AppliesInAnyContext) {
  cwc::rule r("any", cwc::any_compartment, cwc::rate_law::mass_action(1.0));
  EXPECT_TRUE(r.applies_in(cwc::top_compartment));
  EXPECT_TRUE(r.applies_in(5));
  cwc::rule s("specific", 3, cwc::rate_law::mass_action(1.0));
  EXPECT_FALSE(s.applies_in(2));
  EXPECT_TRUE(s.applies_in(3));
}

TEST(Model, ObservablesScopeResolution) {
  cwc::model m;
  const auto a = m.declare_species("A");
  const auto nuc = m.declare_compartment_type("nuc");
  auto root = std::make_unique<cwc::term>(cwc::top_compartment);
  root->content().add(a, 2);
  auto child = std::make_unique<cwc::compartment>(nuc);
  child->content().add(a, 5);
  root->add_child(std::move(child));
  m.set_initial(std::move(root));
  const auto total = m.add_observable("A", a);
  const auto scoped = m.add_observable("A-nuc", a, nuc);

  EXPECT_DOUBLE_EQ(m.observe(m.initial(), total), 7.0);
  EXPECT_DOUBLE_EQ(m.observe(m.initial(), scoped), 5.0);
  const auto all = m.observe_all(m.initial());
  ASSERT_EQ(all.size(), 2u);
  EXPECT_DOUBLE_EQ(all[0], 7.0);
}

TEST(Model, InitialMustBeTop) {
  cwc::model m;
  auto bad = std::make_unique<cwc::term>(3u);
  EXPECT_THROW(m.set_initial(std::move(bad)), util::precondition_error);
  EXPECT_THROW(m.initial(), util::precondition_error);
}

}  // namespace
