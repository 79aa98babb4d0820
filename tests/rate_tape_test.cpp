// Property tests for the rate-law bytecode tape and the wide batch kernels:
// tape evaluation, and the combinatorics a custom law receives, must match
// the per-rule matcher of tests/match_oracle.hpp BIT FOR BIT across
// randomized parameters and copy numbers for every law kind, and the
// lane-innermost wide kernel must match the scalar tape walk column by
// column. Plus unit pins for the Hill edge cases (n == 0, zero driver
// count) that the branchless tape forms must preserve.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "cwc/cwc.hpp"
#include "match_oracle.hpp"
#include "util/check.hpp"

namespace {

/// Bit-strict double comparison: 0.0 vs -0.0 and NaN payloads count.
::testing::AssertionResult same_bits(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::hex
         << std::bit_cast<std::uint64_t>(a) << " vs "
         << std::bit_cast<std::uint64_t>(b) << ")";
}

/// One rule per law kind / op-k specialisation, all firing in `top` with a
/// single pod child candidate — so the oracle's total_propensity(host) IS
/// the one match's propensity (or 0.0 when infeasible), the exact value the
/// tape must reproduce.
cwc::model make_tape_model() {
  cwc::model m;
  const auto A = m.declare_species("A");
  const auto B = m.declare_species("B");
  const auto C = m.declare_species("C");
  const auto mem = m.declare_species("mem");
  const auto pod = m.declare_compartment_type("pod");

  auto root = std::make_unique<cwc::term>(cwc::top_compartment);
  root->content().add(A, 3);
  auto child = std::make_unique<cwc::compartment>(pod);
  child->wrap().add(mem);
  child->content().add(B, 2);
  root->add_child(std::move(child));
  m.set_initial(std::move(root));

  {  // k == 1 / k == 2 / generic-k choose ops in one program
    cwc::rule r("ma", cwc::top_compartment, cwc::rate_law::mass_action(0.7));
    r.consume(A, 1);
    r.consume(B, 2);
    r.consume(C, 3);
    r.produce(A);
    m.add_rule(std::move(r));
  }
  {
    cwc::rule r("mm", cwc::top_compartment,
                cwc::rate_law::michaelis_menten(1.5, 8.0, B));
    r.consume(A);
    m.add_rule(std::move(r));
  }
  {  // integer Hill exponent: fixed-trip product path
    cwc::rule r("hill_rep_int", cwc::top_compartment,
                cwc::rate_law::hill_repression(2.5, 3.0, 4.0, C));
    r.consume(A);
    m.add_rule(std::move(r));
  }
  {
    cwc::rule r("hill_act_int", cwc::top_compartment,
                cwc::rate_law::hill_activation(1.2, 2.0, 2.0, A));
    r.consume(B);
    m.add_rule(std::move(r));
  }
  {  // non-integer Hill exponent: scalar libm pow path
    cwc::rule r("hill_rep_frac", cwc::top_compartment,
                cwc::rate_law::hill_repression(0.9, 1.7, 2.5, B));
    r.consume(C);
    m.add_rule(std::move(r));
  }
  {  // n == 0 degenerates to the constant v/2 for EVERY driver count
    cwc::rule r("hill_act_zero", cwc::top_compartment,
                cwc::rate_law::hill_activation(3.0, 5.0, 0.0, C));
    r.consume(A);
    m.add_rule(std::move(r));
  }
  {  // child-binding: wrap + content segments, driver read from the child
    cwc::rule r("chd", cwc::top_compartment,
                cwc::rate_law::michaelis_menten(2.0, 4.0, C,
                                                /*driver_in_child=*/true));
    r.consume(A);
    cwc::comp_pattern pat;
    pat.type = pod;
    pat.wrap_req.add(mem);
    pat.content_req.add(B, 2);
    r.match_child(std::move(pat));
    r.produce_in_child(B);
    m.add_rule(std::move(r));
  }
  {  // custom law over a child match: the tape serves its combinatorics
    cwc::rule r("cst", cwc::top_compartment,
                cwc::rate_law::custom([](const cwc::rate_ctx& ctx) {
                  return 0.5 * ctx.combinations;
                }));
    r.consume(A, 2);
    cwc::comp_pattern pat;
    pat.type = pod;
    pat.wrap_req.add(mem);
    pat.content_req.add(C);
    r.match_child(std::move(pat));
    m.add_rule(std::move(r));
  }

  m.add_observable("A", A, std::nullopt);
  return m;
}

/// Copy-number generator biased toward the feasibility boundaries (0, 1, 2,
/// 3 straddle every stoichiometry in the model) plus large counts.
std::uint64_t draw_count(std::mt19937_64& rng) {
  static constexpr std::uint64_t pool[] = {0, 0, 1, 1, 2, 2, 3,
                                           4, 5, 7, 19, 120, 1000000};
  return pool[rng() % (sizeof(pool) / sizeof(pool[0]))];
}

TEST(RateTape, MatchesScalarRulePropensityBitForBit) {
  const auto m = make_tape_model();
  const auto cm = cwc::compiled_model::compile(m);
  const cwc::rate_tape& tape = cm->tape();
  const auto& rules = cm->tree()->rules();
  ASSERT_EQ(tape.num_programs(), rules.size());
  const std::size_t S = cm->num_species();

  const auto A = m.species().id("A");
  const auto B = m.species().id("B");
  const auto C = m.species().id("C");
  const auto mem = m.species().id("mem");
  const auto pod = m.compartment_types().id("pod");

  std::mt19937_64 rng(2024);
  std::vector<std::uint64_t> host_c(S), child_w(S), child_c(S);
  for (int iter = 0; iter < 2000; ++iter) {
    cwc::compartment host(cwc::top_compartment);
    auto child = std::make_unique<cwc::compartment>(pod);
    std::fill(host_c.begin(), host_c.end(), 0);
    std::fill(child_w.begin(), child_w.end(), 0);
    std::fill(child_c.begin(), child_c.end(), 0);
    for (const auto s : {A, B, C}) {
      host_c[s] = draw_count(rng);
      child_c[s] = draw_count(rng);
      if (host_c[s] != 0) host.content().add(s, host_c[s]);
      if (child_c[s] != 0) child->content().add(s, child_c[s]);
    }
    child_w[mem] = draw_count(rng);
    if (child_w[mem] != 0) child->wrap().add(mem, child_w[mem]);
    host.add_child(std::move(child));

    for (std::size_t j = 0; j < rules.size(); ++j) {
      const cwc::tape_program& pg = tape.program(j);
      const cwc::compartment* bound = pg.has_child ? &host.child(0) : nullptr;
      EXPECT_TRUE(same_bits(
          tape.combinations(pg, host_c.data(), child_w.data(), child_c.data(),
                            1),
          match_oracle::match_combinations(rules[j], host, bound)))
          << "rule " << j << " (" << rules[j].name() << ") iter " << iter;
      // The tree engine calls a custom law itself, over those combinatorics.
      if (pg.head == cwc::tape_head::custom) continue;
      const double want = match_oracle::total_propensity(rules[j], host);
      const double got = tape.eval(pg, host_c.data(), child_w.data(),
                                   child_c.data(), 1);
      EXPECT_TRUE(same_bits(got, want))
          << "rule " << j << " (" << rules[j].name() << ") iter " << iter;
    }
  }
}

TEST(RateTape, WideKernelMatchesScalarTapeWalkPerColumn) {
  const auto m = make_tape_model();
  const auto cm = cwc::compiled_model::compile(m);
  const cwc::rate_tape& tape = cm->tape();
  const std::size_t S = cm->num_species();

  constexpr std::size_t cap = 24;  // not a vector-width multiple on purpose
  std::mt19937_64 rng(7177);
  std::vector<std::uint64_t> host_c(S * cap), child_w(S * cap),
      child_c(S * cap);
  std::vector<double> wide(cap);
  cwc::batch::kernels::wide_scratch ws;

  for (int iter = 0; iter < 200; ++iter) {
    for (auto* strip : {&host_c, &child_w, &child_c})
      for (auto& v : *strip) v = draw_count(rng);
    for (std::size_t j = 0; j < tape.num_programs(); ++j) {
      const cwc::tape_program& pg = tape.program(j);
      cwc::batch::kernels::tape_eval_wide(tape, pg, host_c.data(),
                                          child_w.data(), child_c.data(), cap,
                                          wide.data(), ws);
      for (std::size_t col = 0; col < cap; ++col) {
        const double scalar =
            tape.eval(pg, host_c.data() + col, child_w.data() + col,
                      child_c.data() + col, cap);
        EXPECT_TRUE(same_bits(wide[col], scalar))
            << "program " << j << " column " << col << " iter " << iter;
      }
    }
  }
}

TEST(RateTape, CompiledProgramsMirrorLawParameters) {
  const auto m = make_tape_model();
  const auto cm = cwc::compiled_model::compile(m);
  const cwc::rate_tape& tape = cm->tape();
  const auto& rules = cm->tree()->rules();
  for (std::size_t j = 0; j < rules.size(); ++j) {
    const cwc::rate_law& law = rules[j].law();
    const cwc::tape_program& pg = tape.program(j);
    EXPECT_EQ(pg.a, law.param_a()) << rules[j].name();
    EXPECT_EQ(pg.kn, law.param_kn()) << rules[j].name();
    EXPECT_EQ(pg.hill_exp, law.hill_int_exp()) << rules[j].name();
    EXPECT_EQ(pg.has_child, rules[j].child_pattern().has_value());
    if (pg.has_child) {
      EXPECT_EQ(pg.child_type, rules[j].child_pattern()->type);
    }
  }
  // Integer-exponent classification: 4.0 and 2.0 take the fixed-trip
  // product path, 2.5 keeps libm pow, n == 0 is the 0-trip product.
  EXPECT_EQ(tape.program(2).hill_exp, 4);
  EXPECT_EQ(tape.program(4).hill_exp, -1);
  EXPECT_EQ(tape.program(5).hill_exp, 0);
}

// ---- Hill / MM edge-case pins (evaluate_direct is the reference the tape
// and the wide kernels are held to) ------------------------------------

TEST(RateLaw, HillZeroExponentIsConstantHalfV) {
  const auto rep = cwc::rate_law::hill_repression(3.0, 5.0, 0.0, 0);
  const auto act = cwc::rate_law::hill_activation(3.0, 5.0, 0.0, 0);
  for (const double x : {0.0, 1.0, 17.0, 1e9}) {
    EXPECT_TRUE(same_bits(rep.evaluate_direct(1.0, x), 1.5)) << x;
    EXPECT_TRUE(same_bits(act.evaluate_direct(1.0, x), 1.5)) << x;
  }
}

TEST(RateLaw, HillActivationZeroDriverIsExactlyZero) {
  const auto act = cwc::rate_law::hill_activation(2.0, 3.0, 4.0, 0);
  EXPECT_TRUE(same_bits(act.evaluate_direct(1.0, 0.0), 0.0));
  // Repression at x == 0 is the full rate, exactly.
  const auto rep = cwc::rate_law::hill_repression(2.0, 3.0, 4.0, 0);
  EXPECT_TRUE(same_bits(rep.evaluate_direct(1.0, 0.0), 2.0));
}

TEST(RateLaw, MichaelisMentenZeroDriverIsExactlyZero) {
  const auto mm = cwc::rate_law::michaelis_menten(5.0, 2.0, 0);
  EXPECT_TRUE(same_bits(mm.evaluate_direct(1.0, 0.0), 0.0));
}

TEST(RateLaw, HillPowMatchesLibmOnIntegerExponents) {
  // The fixed-trip product is a left-to-right multiply chain; for the
  // small integer exponents the model library uses it agrees with libm
  // pow bit-for-bit on exactly-representable inputs.
  EXPECT_TRUE(same_bits(cwc::detail::hill_pow(0.0, 0.0, 0), 1.0));
  EXPECT_TRUE(same_bits(cwc::detail::hill_pow(0.0, 3.0, 3), 0.0));
  for (const double x : {1.0, 2.0, 3.0, 10.0, 0.5})
    for (const int n : {0, 1, 2, 3, 4})
      EXPECT_TRUE(same_bits(cwc::detail::hill_pow(x, n, n), std::pow(x, n)))
          << x << "^" << n;
  // Non-integer exponents route to libm pow verbatim.
  EXPECT_TRUE(
      same_bits(cwc::detail::hill_pow(1.7, 2.5, -1), std::pow(1.7, 2.5)));
}

TEST(RateLaw, HillFactoriesRejectBadParameters) {
  EXPECT_THROW(cwc::rate_law::hill_repression(1.0, 0.0, 2.0, 0),
               util::precondition_error);
  EXPECT_THROW(cwc::rate_law::hill_activation(1.0, -1.0, 2.0, 0),
               util::precondition_error);
  EXPECT_THROW(cwc::rate_law::hill_activation(1.0, 2.0, -1.0, 0),
               util::precondition_error);
}

// An infinite parameter would reach the engines as an infinite or NaN
// propensity: mass_action(+inf) makes every firing take zero time, so a run
// never ends. A Hill K^n that overflows gives inf/inf = NaN, and one that
// underflows to 0 gives 0/0 at a zero driver count.
TEST(RateLaw, FactoriesRejectNonFiniteParameters) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(cwc::rate_law::mass_action(inf), util::precondition_error);
  EXPECT_THROW(cwc::rate_law::michaelis_menten(inf, 1.0, 0),
               util::precondition_error);
  EXPECT_THROW(cwc::rate_law::michaelis_menten(1.0, inf, 0),
               util::precondition_error);
  for (const auto hill :
       {&cwc::rate_law::hill_repression, &cwc::rate_law::hill_activation}) {
    EXPECT_THROW(hill(inf, 10.0, 2.0, 0, false), util::precondition_error);
    EXPECT_THROW(hill(30.0, inf, 2.0, 0, false), util::precondition_error);
    EXPECT_THROW(hill(30.0, 10.0, inf, 0, false), util::precondition_error);
    EXPECT_THROW(hill(30.0, 1e200, 2.0, 0, false), util::precondition_error);
    EXPECT_THROW(hill(30.0, 1e-200, 2.0, 0, false), util::precondition_error);
    EXPECT_NO_THROW(hill(30.0, 1e100, 2.0, 0, false));  // K^n = 1e200
  }
  const auto k = cwc::rate_law::mass_action(1.0);
  EXPECT_THROW(k.with_constant(inf, "k"), cwc::overlay_error);
  EXPECT_EQ(k.with_constant(2.5, "k").constant(), 2.5);
}

}  // namespace
