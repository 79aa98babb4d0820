// An independent per-rule matcher, the test oracle of the rate tape. It
// reads a rule's patterns and rate law straight from the rule and a
// compartment's multisets, and shares no code with cwc::rate_tape beyond
// cwc::choose and rate_law::evaluate: combinatorics in ascending species
// order with an early 0.0 on the first short species, host factors times
// (wrap factors * child content factors). rate_tape_test holds the tape to
// it bit for bit, and cwc_term_test's rule cases check hand-computed
// propensities against it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "cwc/cwc.hpp"

namespace match_oracle {

/// prod_s C(have(s), pattern(s)) over the pattern's species in ascending
/// order, or 0.0 when some species is short.
inline double combinations(const cwc::multiset& have,
                           const cwc::multiset& pattern) {
  double prod = 1.0;
  bool feasible = true;
  pattern.for_each([&](cwc::species_id s, std::uint64_t k) {
    if (!feasible) return;
    const std::uint64_t n = have.count(s);
    if (n < k) {
      feasible = false;
      return;
    }
    prod *= cwc::choose(n, k);
  });
  return feasible ? prod : 0.0;
}

/// The combinatorics of `r` in `host` with `child` bound (nullptr for a
/// rule without a child pattern), or 0.0 when the match is infeasible.
inline double match_combinations(const cwc::rule& r,
                                 const cwc::compartment& host,
                                 const cwc::compartment* child) {
  const double comb = combinations(host.content(), r.reactants());
  if (comb == 0.0 || !r.child_pattern().has_value()) return comb;
  if (child == nullptr || child->type() != r.child_pattern()->type)
    return 0.0;
  const double cw = combinations(child->wrap(), r.child_pattern()->wrap_req);
  const double cc =
      combinations(child->content(), r.child_pattern()->content_req);
  if (cw == 0.0 || cc == 0.0) return 0.0;
  return comb * (cw * cc);
}

/// The propensity of one match: the rule's law over its combinatorics.
inline double match_propensity(const cwc::rule& r,
                               const cwc::compartment& host,
                               const cwc::compartment* child) {
  const double comb = match_combinations(r, host, child);
  if (comb == 0.0) return 0.0;
  return r.law().evaluate(cwc::rate_ctx{
      host.content(), child != nullptr ? &child->content() : nullptr, comb});
}

/// One match and its propensity; passes to rule::apply as a rule::match.
struct match : cwc::rule::match {
  double propensity = 0.0;
};

/// Every positive-propensity match of `r` in `host`, children in index
/// order.
inline std::vector<match> enumerate(const cwc::rule& r,
                                    const cwc::compartment& host) {
  std::vector<match> out;
  if (!r.child_pattern().has_value()) {
    const double p = match_propensity(r, host, nullptr);
    if (p > 0.0) out.push_back(match{{std::nullopt}, p});
    return out;
  }
  for (std::size_t i = 0; i < host.num_children(); ++i) {
    const double p = match_propensity(r, host, &host.child(i));
    if (p > 0.0) out.push_back(match{{i}, p});
  }
  return out;
}

/// The sum of the propensities of every match of `r` in `host`.
inline double total_propensity(const cwc::rule& r,
                               const cwc::compartment& host) {
  if (!r.child_pattern().has_value())
    return match_propensity(r, host, nullptr);
  double sum = 0.0;
  for (std::size_t i = 0; i < host.num_children(); ++i)
    sum += match_propensity(r, host, &host.child(i));
  return sum;
}

}  // namespace match_oracle
