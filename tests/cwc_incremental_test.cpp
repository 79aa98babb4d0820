// Lockstep golden tests for the incremental match cache: cwc::engine in
// engine_mode::incremental (cached per-compartment match blocks, dependency
// driven refresh) must produce bit-for-bit the sample path of
// engine_mode::reference (naive full re-collect every step) on every model
// shape — pure content rewrites (Neurospora), compartment creation/dissolve
// (compartment demo), and a churn-heavy model exercising creation, nested
// compartments, transport, dissolution with grandchild reparenting, subtree
// removal, any-context rules, and non-mass-action laws. Also proves the
// steady-state step allocates nothing.
#include <gtest/gtest.h>

#include "counting_allocator.hpp"
#include "cwc/cwc.hpp"
#include "models/models.hpp"

namespace {

// A model heavy on structural rewrites: every fate (keep/dissolve/remove),
// compartment creation at two nesting levels, transport into a kept child,
// an any-context rule, and MM kinetics (conservative dependencies).
cwc::model make_churn_model() {
  cwc::model m;
  const auto A = m.declare_species("A");
  const auto B = m.declare_species("B");
  const auto mem = m.declare_species("m");
  const auto pod = m.declare_compartment_type("pod");

  auto root = std::make_unique<cwc::term>(cwc::top_compartment);
  root->content().add(A, 40);
  auto seed_pod = std::make_unique<cwc::compartment>(pod);
  seed_pod->wrap().add(mem);
  seed_pod->content().add(B, 2);
  root->add_child(std::move(seed_pod));
  m.set_initial(std::move(root));

  {  // top: 2A -> (pod: m | B)
    cwc::rule r("make", cwc::top_compartment, cwc::rate_law::mass_action(0.4));
    r.consume(A, 2);
    cwc::comp_product p;
    p.type = pod;
    p.wrap.add(mem);
    p.content.add(B);
    r.create_compartment(std::move(p));
    m.add_rule(std::move(r));
  }
  {  // pod: B -> 2B
    cwc::rule r("grow", pod, cwc::rate_law::mass_action(0.9));
    r.consume(B);
    r.produce(B, 2);
    m.add_rule(std::move(r));
  }
  {  // pod: 2B -> (pod: m | B)  — nested pod, dissolved pods reparent these
    cwc::rule r("bud", pod, cwc::rate_law::mass_action(0.25));
    r.consume(B, 2);
    cwc::comp_product p;
    p.type = pod;
    p.wrap.add(mem);
    p.content.add(B);
    r.create_compartment(std::move(p));
    m.add_rule(std::move(r));
  }
  {  // top: A + (pod:|) -> (pod:| A)  — transport into a kept child
    cwc::rule r("xport", cwc::top_compartment, cwc::rate_law::mass_action(0.2));
    r.consume(A);
    r.match_child(cwc::comp_pattern{pod, {}, {}});
    r.produce_in_child(A);
    m.add_rule(std::move(r));
  }
  {  // top: (pod: m | 3B) -> 2A, rest released (grandchildren float up)
    cwc::rule r("pop", cwc::top_compartment, cwc::rate_law::mass_action(0.5));
    cwc::comp_pattern pat;
    pat.type = pod;
    pat.wrap_req.add(mem);
    pat.content_req.add(B, 3);
    r.match_child(std::move(pat));
    r.produce(A, 2);
    r.set_child_fate(cwc::child_fate::dissolve);
    m.add_rule(std::move(r));
  }
  {  // top: (pod: | 5B) -> ∅  — whole subtree destroyed
    cwc::rule r("cull", cwc::top_compartment, cwc::rate_law::mass_action(0.15));
    cwc::comp_pattern pat;
    pat.type = pod;
    pat.content_req.add(B, 5);
    r.match_child(std::move(pat));
    r.set_child_fate(cwc::child_fate::remove);
    m.add_rule(std::move(r));
  }
  {  // any: B -> ∅  — any-context rule, fires in top and in every pod
    cwc::rule r("decay", cwc::any_compartment, cwc::rate_law::mass_action(0.05));
    r.consume(B);
    m.add_rule(std::move(r));
  }
  {  // top: A -> B  @ MM(A)  — non-mass-action, conservative dependencies
    cwc::rule r("mm", cwc::top_compartment,
                cwc::rate_law::michaelis_menten(1.5, 8.0, A));
    r.consume(A);
    r.produce(B);
    m.add_rule(std::move(r));
  }

  m.add_observable("A", A, std::nullopt);
  m.add_observable("B", B, std::nullopt);
  m.add_observable("B-in-pods", B, pod);
  return m;
}

void lockstep_steps(const cwc::model& m, std::uint64_t seed, std::uint64_t id,
                    int steps) {
  cwc::engine inc(cwc::compiled_model::compile(m), seed, id,
                  cwc::engine_mode::incremental);
  cwc::engine ref(cwc::compiled_model::compile(m), seed, id,
                  cwc::engine_mode::reference);
  for (int i = 0; i < steps; ++i) {
    const bool a = inc.step();
    const bool b = ref.step();
    ASSERT_EQ(a, b) << "step " << i;
    ASSERT_EQ(inc.time(), ref.time()) << "time diverged at step " << i;
    ASSERT_EQ(inc.stalled(), ref.stalled());
    if (i % 16 == 0) {
      ASSERT_TRUE(inc.state().equals(ref.state())) << "state at step " << i;
      ASSERT_TRUE(inc.check_match_cache()) << "cache at step " << i;
      // Reference mode re-collects eagerly after each firing, so its cache
      // (including the pre-order view after structural rewrites) must be
      // consistent too.
      ASSERT_TRUE(ref.check_match_cache()) << "reference cache at step " << i;
    }
    if (!a) break;
  }
  EXPECT_EQ(inc.steps(), ref.steps());
  EXPECT_TRUE(inc.state().equals(ref.state()));
  EXPECT_TRUE(inc.check_match_cache());
}

TEST(IncrementalEngine, LockstepNeurospora) {
  lockstep_steps(models::make_neurospora_cwc({}), 17, 3, 400);
}

TEST(IncrementalEngine, LockstepCompartmentDemo) {
  for (std::uint64_t id = 0; id < 4; ++id)
    lockstep_steps(models::make_compartment_demo({}), 23, id, 300);
}

TEST(IncrementalEngine, LockstepChurnModel) {
  for (std::uint64_t id = 0; id < 6; ++id)
    lockstep_steps(make_churn_model(), 31, id, 250);
}

void expect_same_samples(const std::vector<cwc::trajectory_sample>& a,
                         const std::vector<cwc::trajectory_sample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << "sample " << i;
    EXPECT_EQ(a[i].values, b[i].values) << "sample " << i;
  }
}

// Bit-exact sample paths across run_to quantum boundaries: the incremental
// engine driven in small quanta against the reference collector run in one
// sweep (and vice versa).
TEST(IncrementalEngine, QuantumBoundariesMatchReference) {
  // The churn model is step-bounded elsewhere (its autocatalytic growth makes
  // long horizons explode); here bounded models cover content-only rewrites
  // (Neurospora) and structural ones (compartment demo) across quanta.
  for (const bool tree_model : {true, false}) {
    const cwc::model m = tree_model ? models::make_neurospora_cwc({})
                                    : models::make_compartment_demo({});

    cwc::engine ref(cwc::compiled_model::compile(m), 7, 1,
                    cwc::engine_mode::reference);
    std::vector<cwc::trajectory_sample> rs;
    ref.run_to(20.0, 0.5, rs);

    cwc::engine inc(cwc::compiled_model::compile(m), 7, 1,
                    cwc::engine_mode::incremental);
    std::vector<cwc::trajectory_sample> is;
    double t = 0.0;
    while (t < 20.0) {
      t = std::min(t + 0.7, 20.0);
      inc.run_to(t, 0.5, is);
      ASSERT_TRUE(inc.check_match_cache()) << "after quantum to t=" << t;
    }
    expect_same_samples(is, rs);
    EXPECT_EQ(inc.steps(), ref.steps());
    EXPECT_TRUE(inc.state().equals(ref.state()));
  }
}

// A model that stalls (2A -> B exhausts its reactant pairs): both modes must
// stall at the same step and keep emitting the frozen sample grid.
TEST(IncrementalEngine, StallMatchesReferenceAcrossQuanta) {
  cwc::model m;
  m.set_initial(cwc::parse_term(m, "7*A"));
  m.add_rule(cwc::parse_rule(m, "fuse", "top: 2*A -> B @ 1.0"));
  m.add_observable("A", m.species().id("A"));
  m.add_observable("B", m.species().id("B"));

  cwc::engine ref(cwc::compiled_model::compile(m), 5, 0,
                  cwc::engine_mode::reference);
  std::vector<cwc::trajectory_sample> rs;
  ref.run_to(50.0, 1.0, rs);
  ASSERT_TRUE(ref.stalled());

  cwc::engine inc(cwc::compiled_model::compile(m), 5, 0,
                  cwc::engine_mode::incremental);
  std::vector<cwc::trajectory_sample> is;
  for (double t = 5.0; t <= 50.0 + 1e-9; t += 5.0) inc.run_to(t, 1.0, is);
  EXPECT_TRUE(inc.stalled());
  expect_same_samples(is, rs);
  ASSERT_EQ(is.size(), 51u);  // full grid emitted despite the stall
}

// The cached-block maintenance must leave the steady-state SSA step
// allocation-free: after warm-up (match lists and multiset universes at
// capacity), a long run of steps may not allocate at all.
TEST(IncrementalEngine, SteadyStateStepIsAllocationFree) {
  const auto m = models::make_neurospora_cwc({});
  cwc::engine eng(cwc::compiled_model::compile(m), 123, 0);
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(eng.step());

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  bool alive = true;
  for (int i = 0; i < 1000 && alive; ++i) alive = eng.step();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  ASSERT_TRUE(alive);
  EXPECT_EQ(after - before, 0u)
      << "steady-state steps allocated " << (after - before) << " times";
}

}  // namespace
