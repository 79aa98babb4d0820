// Exact-law conformance of the direct-method SSA engines. Each case runs a
// small model whose state at one time point has a closed-form law, reads
// that state from 4000 independent trajectories per seed, and applies
// Pearson's χ² goodness-of-fit test. A flat network runs on
// cwc::flat_engine; the same network, written as a CWC model text, runs on
// the tree engine cwc::engine. Transport into a child compartment has no
// flat form and checks the tree engine's nesting alone.
//
// A correct engine passes every case at every listed seed; a failure is a
// defect, not bad luck to re-seed away. At the 1e-3 level a 10% error in one
// propensity fails every case that rule drives.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cwc/cwc.hpp"

namespace {

constexpr std::uint64_t kTrajectories = 4000;
constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};
constexpr double kRejectBelow = 1e-3;  ///< reject the law when p < this
constexpr double kMinExpected = 5.0;   ///< merge bins up to this expectation

// ---- χ² goodness of fit ------------------------------------------------

/// Regularized upper incomplete gamma Q(a, x) = Γ(a, x) / Γ(a): a power
/// series below x = a + 1, a Lentz continued fraction above (Numerical
/// Recipes §6.2). The χ² tail with k degrees of freedom is Q(k/2, χ²/2).
double gamma_q(double a, double x) {
  if (x <= 0.0) return 1.0;
  const double prefactor = std::exp(a * std::log(x) - x - std::lgamma(a));
  constexpr double kEps = 1e-15;
  constexpr double kTiny = 1e-300;
  if (x < a + 1.0) {
    double term = 1.0 / a;
    double sum = term;
    for (double n = a + 1.0; term > sum * kEps; n += 1.0) {
      term *= x / n;
      sum += term;
    }
    return 1.0 - sum * prefactor;
  }
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 1000; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < kEps) break;
  }
  return prefactor * h;
}

struct fit {
  double chi2 = 0.0;
  std::size_t bins = 0;
  double p = 0.0;
};

/// Pearson's χ² test of `counts` (trajectories per read value) against
/// `pmf`, where pmf[k] = P(X = k) and the last entry holds the whole upper
/// tail P(X >= pmf.size() - 1). Values are binned left to right until each
/// bin expects at least kMinExpected; a short remainder joins the last bin.
fit chi_square(const std::vector<std::uint64_t>& counts,
               const std::vector<double>& pmf) {
  const double n = static_cast<double>(kTrajectories);
  std::vector<double> expected, observed;
  double e = 0.0, o = 0.0;
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    e += n * pmf[k];
    if (k + 1 < pmf.size()) {
      o += k < counts.size() ? static_cast<double>(counts[k]) : 0.0;
    } else {
      for (std::size_t v = k; v < counts.size(); ++v)
        o += static_cast<double>(counts[v]);
    }
    if (e >= kMinExpected) {
      expected.push_back(e);
      observed.push_back(o);
      e = o = 0.0;
    }
  }
  if (!expected.empty()) {
    expected.back() += e;
    observed.back() += o;
  }
  fit f;
  f.bins = expected.size();
  for (std::size_t b = 0; b < f.bins; ++b) {
    const double d = observed[b] - expected[b];
    f.chi2 += d * d / expected[b];
  }
  f.p = f.bins < 2 ? 0.0 : gamma_q(0.5 * static_cast<double>(f.bins - 1),
                                   0.5 * f.chi2);
  return f;
}

// ---- exact laws ------------------------------------------------------------

/// Poisson(mean) over 0 .. last, the last entry holding the upper tail.
std::vector<double> poisson(double mean, std::size_t last) {
  std::vector<double> pmf(last + 1);
  double term = std::exp(-mean);
  double head = 0.0;
  for (std::size_t k = 0; k < last; ++k) {
    pmf[k] = term;
    head += term;
    term *= mean / static_cast<double>(k + 1);
  }
  pmf[last] = 1.0 - head;
  return pmf;
}

/// Binomial(n, p) over 0 .. n.
std::vector<double> binomial(unsigned n, double p) {
  std::vector<double> pmf(n + 1);
  for (unsigned k = 0; k <= n; ++k)
    pmf[k] = std::exp(std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
                      std::lgamma(n - k + 1.0) + k * std::log(p) +
                      (n - k) * std::log1p(-p));
  return pmf;
}

/// Stationary law over 0 .. last of a chain that steps x -> x + 1 at
/// up(x) and x + 1 -> x at down(x + 1): detailed balance gives
/// π(x + 1) = π(x) up(x) / down(x + 1).
template <class Up, class Down>
std::vector<double> detailed_balance(std::size_t last, Up up, Down down) {
  std::vector<double> pmf(last + 1);
  pmf[0] = 1.0;
  double total = 1.0;
  for (std::size_t x = 0; x < last; ++x) {
    pmf[x + 1] = pmf[x] * up(static_cast<double>(x)) /
                 down(static_cast<double>(x + 1));
    total += pmf[x + 1];
  }
  for (double& q : pmf) q /= total;
  return pmf;
}

// ---- engines ---------------------------------------------------------------

/// Trajectories per read value: value `index` of each trajectory's sample
/// at time t, for trajectories 0 .. kTrajectories - 1 of `seed`.
template <class Engine>
std::vector<std::uint64_t> histogram(
    const std::shared_ptr<const cwc::compiled_model>& cm, std::uint64_t seed,
    double t, std::size_t index) {
  std::vector<std::uint64_t> counts;
  std::vector<cwc::trajectory_sample> out;
  for (std::uint64_t id = 0; id < kTrajectories; ++id) {
    Engine eng(cm, seed, id);
    out.clear();
    eng.run_to(t, t, out);
    const auto x = static_cast<std::size_t>(out.back().values[index]);
    if (x >= counts.size()) counts.resize(x + 1, 0);
    ++counts[x];
  }
  return counts;
}

/// Fits value `index` at time t against `pmf` at every seed.
template <class Engine>
void expect_law(const char* engine,
                const std::shared_ptr<const cwc::compiled_model>& cm, double t,
                std::size_t index, const std::vector<double>& pmf) {
  for (const std::uint64_t seed : kSeeds) {
    const fit f = chi_square(histogram<Engine>(cm, seed, t, index), pmf);
    EXPECT_GE(f.p, kRejectBelow)
        << engine << " at seed " << seed << ": chi2 " << f.chi2 << " over "
        << f.bins << " bins";
  }
}

/// Fits the flat network's species `species` and the tree model's first
/// observable, read at time t, against `pmf` at every seed.
void expect_both_engines(const cwc::reaction_network& net,
                         const std::string& species, const cwc::model& m,
                         double t, const std::vector<double>& pmf) {
  const auto flat = cwc::compiled_model::compile(net);
  expect_law<cwc::flat_engine>("flat_engine", flat, t,
                               net.species().id(species), pmf);
  expect_law<cwc::engine>("engine", cwc::compiled_model::compile(m), t, 0,
                          pmf);
}

TEST(ChiSquare, TailMatchesClosedForms) {
  // Two degrees of freedom: Q(1, x) = e^-x (continued-fraction branch).
  EXPECT_NEAR(gamma_q(1.0, 3.0), std::exp(-3.0), 1e-13);
  // One degree of freedom: Q(1/2, x) = erfc(sqrt(x)) (series branch).
  EXPECT_NEAR(gamma_q(0.5, 0.4), std::erfc(std::sqrt(0.4)), 1e-13);
  // Exactly the expected counts fit perfectly; moving 200 trajectories from
  // one bin to another does not.
  const auto pmf = binomial(4, 0.5);
  std::vector<std::uint64_t> counts;
  for (const double q : pmf)
    counts.push_back(static_cast<std::uint64_t>(q * kTrajectories));
  EXPECT_DOUBLE_EQ(chi_square(counts, pmf).p, 1.0);
  counts[2] += 200;
  counts[0] -= 200;
  EXPECT_LT(chi_square(counts, pmf).p, kRejectBelow);
}

// ∅ -> X at λ = 20, X -> ∅ at μ = 1, from X = 0: X(t) is Poisson with mean
// (λ/μ)(1 - e^(-μt)).
TEST(ExactLaw, BirthDeathIsPoissonAtTwo) {
  cwc::reaction_network net;
  const auto X = net.declare_species("X");
  net.add_reaction("birth", {}, {{X, 1}}, cwc::rate_law::mass_action(20.0));
  net.add_reaction("death", {{X, 1}}, {}, cwc::rate_law::mass_action(1.0));
  const auto m = cwc::load_model(R"(
    init
    rule birth top: 0 -> X @ 20
    rule death top: X -> 0 @ 1
    observable X
  )");
  expect_both_engines(net, "X", m, 2.0,
                      poisson(20.0 * (1.0 - std::exp(-2.0)), 60));
}

// A -> B at 1, B -> A at 0.5, from 30 A: each molecule is still (or again)
// an A at t with p(t) = 1/3 + (2/3) e^(-1.5t), independently of the rest.
TEST(ExactLaw, IsomerizationIsBinomialAtOnePointFive) {
  cwc::reaction_network net;
  const auto A = net.declare_species("A");
  const auto B = net.declare_species("B");
  net.set_initial(A, 30);
  net.add_reaction("fwd", {{A, 1}}, {{B, 1}}, cwc::rate_law::mass_action(1.0));
  net.add_reaction("back", {{B, 1}}, {{A, 1}}, cwc::rate_law::mass_action(0.5));
  const auto m = cwc::load_model(R"(
    init 30*A
    rule fwd top: A -> B @ 1
    rule back top: B -> A @ 0.5
    observable A
  )");
  const double p = 1.0 / 3.0 + 2.0 / 3.0 * std::exp(-1.5 * 1.5);
  expect_both_engines(net, "A", m, 1.5, binomial(30, p));
}

// 2A -> B at 0.05 per A pair, B -> 2A at 1, from 20 A: B moves on 0 .. 10
// (A = 20 - 2B) and by t = 20 has relaxed to its detailed-balance law
// under second-order mass action.
TEST(ExactLaw, DimerizationReachesDetailedBalance) {
  cwc::reaction_network net;
  const auto A = net.declare_species("A");
  const auto B = net.declare_species("B");
  net.set_initial(A, 20);
  net.add_reaction("bind", {{A, 2}}, {{B, 1}}, cwc::rate_law::mass_action(0.05));
  net.add_reaction("split", {{B, 1}}, {{A, 2}}, cwc::rate_law::mass_action(1.0));
  const auto m = cwc::load_model(R"(
    init 20*A
    rule bind top: 2*A -> B @ 0.05
    rule split top: B -> 2*A @ 1
    observable B
  )");
  const auto pmf = detailed_balance(
      10,
      [](double b) {
        const double a = 20.0 - 2.0 * b;
        return 0.05 * a * (a - 1.0) / 2.0;
      },
      [](double b) { return 1.0 * b; });
  expect_both_engines(net, "B", m, 20.0, pmf);
}

// ∅ -> X at hill_rep(30, 10, 2, X) = 30 * 10² / (10² + X²), X -> ∅ at 1:
// a rate law that is not mass action, at its detailed-balance law by t = 20.
TEST(ExactLaw, HillRepressedBirthReachesDetailedBalance) {
  cwc::reaction_network net;
  const auto X = net.declare_species("X");
  net.add_reaction("make", {}, {{X, 1}},
                   cwc::rate_law::hill_repression(30.0, 10.0, 2.0, X));
  net.add_reaction("decay", {{X, 1}}, {}, cwc::rate_law::mass_action(1.0));
  const auto m = cwc::load_model(R"(
    init
    rule make top: 0 -> X @ hill_rep(30, 10, 2, X)
    rule decay top: X -> 0 @ 1
    observable X
  )");
  const auto pmf = detailed_balance(
      80, [](double x) { return 30.0 * 100.0 / (100.0 + x * x); },
      [](double x) { return x; });
  expect_both_engines(net, "X", m, 20.0, pmf);
}

// 30 A hop into the one child compartment c at 1 and back out at 0.5: each
// A is inside c at t with probability (2/3)(1 - e^(-1.5t)), independently.
TEST(ExactLaw, TransportIntoAChildIsBinomialAtOnePointFive) {
  const auto m = cwc::load_model(R"(
    compartments c
    init 30*A (c: | )
    rule in top: A + (c: | ) -> (c: | A) @ 1
    rule out top: (c: | A) -> A + (c: | ) @ 0.5
    observable A @ c
  )");
  const double p = 2.0 / 3.0 * (1.0 - std::exp(-1.5 * 1.5));
  expect_law<cwc::engine>("engine", cwc::compiled_model::compile(m), 1.5, 0,
                          binomial(30, p));
}

}  // namespace
