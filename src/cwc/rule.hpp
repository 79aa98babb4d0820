// CWC rewrite rules: their patterns, kinetics and rewrite semantics. The
// propensity of a match is computed from the compiled rate tape
// (rate_tape.hpp), never from the rule itself.
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

  /// One way this rule can fire in `host`: which child, if any, is bound.
  struct match {
    std::optional<std::size_t> child_index;
  };

  /// Fire the rule in `host`, binding the child selected in `m`.
  /// Precondition: the match is feasible in the current state (the engine
  /// fires only matches with a positive propensity).
  /// When `fx` is non-null it is reset and filled with the compartments this
  /// firing touched (the engine's dirty set); a null `fx` discards removed
  /// subtrees immediately, preserving the historical behaviour.
  void apply(compartment& host, const match& m, apply_effects* fx = nullptr) const;

 private:
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
