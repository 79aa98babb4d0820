// CWC rewrite rules and their stochastic matching semantics.
//
// A rule applies inside compartments of a given type (its *context*). Its
// left-hand side consumes a multiset of atoms from the compartment content
// and may additionally match (at most) one child compartment by type plus
// required wrap/content atoms; the unmatched remainder of the child is
// preserved (the "X variable" of CWC). The right-hand side can:
//   - produce atoms locally,
//   - produce/consume atoms inside the bound child (transport in/out),
//   - create new child compartments,
//   - dissolve the bound child (its remaining content and wrap atoms are
//     released into the local content) or remove it entirely.
//
// One child pattern per rule is a deliberate restriction: it keeps the
// match count linear in the number of children while covering the models
// the paper simulates (transport across one membrane).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cwc/rate_law.hpp"
#include "cwc/term.hpp"

namespace cwc {

/// Pattern for one child compartment on a rule's LHS.
struct comp_pattern {
  comp_type_id type = top_compartment;
  multiset wrap_req;     ///< atoms that must be on the child's membrane (kept)
  multiset content_req;  ///< atoms consumed from the child's content
};

/// A new compartment created by a rule's RHS.
struct comp_product {
  comp_type_id type = top_compartment;
  multiset wrap;
  multiset content;
};

/// Fate of the bound child compartment after firing.
enum class child_fate {
  keep,      ///< child stays (contents possibly edited)
  dissolve,  ///< child removed; remaining content + wrap released locally
  remove     ///< child and its whole subtree destroyed
};

/// What one rule firing touched — the engine's incremental match cache
/// re-enumerates exactly these compartments (plus the host's parent) rather
/// than re-walking the whole term tree. Reusable: reset() keeps capacity.
struct apply_effects {
  /// The bound child edited in place (fate keep); nullptr otherwise.
  compartment* bound_child = nullptr;
  /// True when the host's child list changed (creation/dissolve/remove).
  bool structure_changed = false;
  /// The detached compartment for dissolve (the emptied shell) or remove
  /// (the whole subtree), kept alive so the caller can drop cache entries
  /// for every node before destruction.
  std::unique_ptr<compartment> removed;

  void reset() {
    bound_child = nullptr;
    structure_changed = false;
    removed.reset();
  }
};

class rule {
 public:
  rule(std::string name, comp_type_id context, rate_law law)
      : name_(std::move(name)), context_(context), law_(std::move(law)) {}

  const std::string& name() const noexcept { return name_; }
  comp_type_id context() const noexcept { return context_; }
  const rate_law& law() const noexcept { return law_; }

  /// A copy of this rule with `law` in place of the original — the sweep
  /// overlay primitive. Patterns, products, and fate are shared structure
  /// semantics and copy verbatim; only the kinetics change.
  rule with_law(rate_law law) const {
    rule r = *this;
    r.law_ = std::move(law);
    return r;
  }

  /// True when this rule can fire inside a compartment of type `t`.
  bool applies_in(comp_type_id t) const noexcept {
    return context_ == any_compartment || context_ == t;
  }

  // ---- LHS builders -------------------------------------------------
  rule& consume(species_id s, std::uint64_t n = 1);
  rule& match_child(comp_pattern p);

  // ---- RHS builders -------------------------------------------------
  rule& produce(species_id s, std::uint64_t n = 1);
  rule& produce_in_child(species_id s, std::uint64_t n = 1);
  /// Transport out: adds to the child pattern's consumed content
  /// (match_child must have been called first).
  rule& consume_from_child(species_id s, std::uint64_t n = 1);
  rule& create_compartment(comp_product c);
  rule& set_child_fate(child_fate f);

  const multiset& reactants() const noexcept { return reactants_; }
  const multiset& products() const noexcept { return products_; }
  const std::optional<comp_pattern>& child_pattern() const noexcept {
    return child_pattern_;
  }
  const multiset& child_products() const noexcept { return child_products_; }
  const std::vector<comp_product>& new_compartments() const noexcept {
    return new_compartments_;
  }
  child_fate fate() const noexcept { return fate_; }

  /// One way this rule can fire in `host`: which child (if any) is bound and
  /// with what propensity.
  struct match {
    std::optional<std::size_t> child_index;
    double propensity = 0.0;
  };

  /// Sentinel child index passed to for_each_match callbacks for matches
  /// that bind no child.
  static constexpr std::size_t no_child = static_cast<std::size_t>(-1);

  /// Allocation-free form of enumerate(): invokes f(child_index, propensity)
  /// for every positive-propensity match — child_index is `no_child` for a
  /// childless match, otherwise children are visited in index order. This is
  /// the engine's hot path; enumerate() below is the convenience wrapper.
  template <typename F>
  void for_each_match(const compartment& host, F&& f) const {
    if (!child_pattern_.has_value()) {
      const double p = match_propensity(host, nullptr);
      if (p > 0.0) f(no_child, p);
      return;
    }
    const std::size_t n = host.num_children();
    for (std::size_t i = 0; i < n; ++i) {
      const double p = match_propensity(host, &host.child(i));
      if (p > 0.0) f(i, p);
    }
  }

  /// Enumerate all matches of this rule inside `host` (host's type must
  /// already satisfy applies_in). Matches with zero propensity are omitted.
  std::vector<match> enumerate(const compartment& host) const;

  /// Total propensity of the rule inside `host` (sum over matches).
  double total_propensity(const compartment& host) const;

  /// Fire the rule in `host`, binding the child selected in `m`.
  /// Precondition: `m` was produced by enumerate() on the current state.
  /// When `fx` is non-null it is reset and filled with the compartments this
  /// firing touched (the engine's dirty set); a null `fx` discards removed
  /// subtrees immediately, preserving the historical behaviour.
  void apply(compartment& host, const match& m, apply_effects* fx = nullptr) const;

 private:
  double match_propensity(const compartment& host,
                          const compartment* child) const;

  std::string name_;
  comp_type_id context_;
  rate_law law_;

  multiset reactants_;
  std::optional<comp_pattern> child_pattern_;

  multiset products_;
  multiset child_products_;
  std::vector<comp_product> new_compartments_;
  child_fate fate_ = child_fate::keep;
};

}  // namespace cwc
