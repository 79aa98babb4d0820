#include "cwc/compiled_model.hpp"

#include <algorithm>
#include <string>

#include "util/check.hpp"

namespace cwc {

namespace {

// ---- species-footprint kernel ----------------------------------------
// The one audited implementation of "does firing j change what k reads":
// per-rule species sets are dense char bitmaps, dependency means a written
// bit intersects a read bit (or the reader's rate law is non-mass-action
// and conservatively reads everything). The tree engine's redo lists are
// derived from these three primitives.

void mark(std::vector<char>& bits, const multiset& ms) {
  const std::size_t n = bits.size();
  ms.for_each([&](species_id s, std::uint64_t) {
    if (s < n) bits[s] = 1;
  });
}

bool intersects(const std::vector<char>& a, const std::vector<char>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i)
    if (a[i] != 0 && b[i] != 0) return true;
  return false;
}

bool any_bit(const std::vector<char>& a) {
  for (char c : a)
    if (c != 0) return true;
  return false;
}

// ---- declared ids --------------------------------------------------------
// The engines index dense per-species and per-compartment-type tables by
// the ids a tree model names, so compile rejects an id outside the model's
// symbol tables, naming it. The parser never produces one; a hand-built
// rule or a hostile wire frame may.

void check_declared(const model& m) {
  const std::size_t num_species = m.species().size();
  const std::size_t num_types = m.compartment_types().size();
  std::string where;
  const auto undeclared = [&](const char* what, std::uint32_t id) {
    throw util::precondition_error("precondition violated: " + where +
                                   " names undeclared " + what + " " +
                                   std::to_string(id));
  };
  const auto species = [&](species_id s) {
    if (s >= num_species) undeclared("species", s);
  };
  const auto all_species = [&](const multiset& ms) {
    ms.for_each([&](species_id s, std::uint64_t) { species(s); });
  };
  const auto type = [&](comp_type_id t) {
    if (t >= num_types) undeclared("compartment type", t);
  };

  for (const rule& r : m.rules()) {
    where = "rule '" + r.name() + "'";
    if (r.context() != any_compartment) type(r.context());
    all_species(r.reactants());
    all_species(r.products());
    all_species(r.child_products());
    if (r.child_pattern().has_value()) {
      type(r.child_pattern()->type);
      all_species(r.child_pattern()->wrap_req);
      all_species(r.child_pattern()->content_req);
    }
    for (const comp_product& p : r.new_compartments()) {
      type(p.type);
      all_species(p.wrap);
      all_species(p.content);
    }
    if (!r.law().is_mass_action() &&
        r.law().law_kind() != rate_law::kind::custom)
      species(r.law().driver());
  }
  where = "the initial term";
  std::vector<const compartment*> pending{&m.initial()};
  while (!pending.empty()) {
    const compartment& c = *pending.back();
    pending.pop_back();
    type(c.type());
    all_species(c.wrap());
    all_species(c.content());
    for (const auto& child : c.children()) pending.push_back(child.get());
  }
  for (const observable& o : m.observables()) {
    where = "observable '" + o.name + "'";
    species(o.sp);
    if (o.scope.has_value()) type(*o.scope);
  }
}

}  // namespace

std::atomic<std::uint64_t> compiled_model::compiles_{0};

std::shared_ptr<const compiled_model> compiled_model::finish(
    std::shared_ptr<compiled_model> cm) {
  if (cm->tree_ != nullptr) check_declared(*cm->tree_);
  compiles_.fetch_add(1, std::memory_order_relaxed);
  if (cm->tree_ != nullptr) cm->build_tree_tables();
  return cm;
}

std::shared_ptr<const compiled_model> compiled_model::overlay(
    std::shared_ptr<const compiled_model> base,
    const std::vector<rate_override>& overrides) {
  util::expects(base != nullptr, "overlay requires a base artifact");
  auto ov = std::shared_ptr<compiled_model>(new compiled_model());
  // Collapse overlay-of-overlay chains: tables always route to the
  // structural root, whose lifetime `base` (transitively) guarantees.
  ov->tables_ = base->tables_;

  if (base->is_tree()) {
    ov->tree_ = base->tree_;
    // Start from base's (possibly already overlaid) tape so stacked
    // overlays compose; it is a small flat copy, and the rule table, the
    // dependency index and the plans stay shared.
    ov->tape_ = base->tape_;
    const std::vector<rule>& rules = base->rules();
    for (const auto& [name, value] : overrides) {
      bool found = false;
      for (std::size_t j = 0; j < rules.size(); ++j) {
        if (rules[j].name() != name) continue;
        ov->tape_.patch_constant(
            j, rules[j].law().with_constant(value, name).constant());
        found = true;
      }
      if (!found)
        throw overlay_error(name, "no rule with this name in the model");
    }
  } else {
    // Flat overlay: the reaction table IS the per-cell state (a flat
    // artifact has no other table), so patch an owned copy.
    ov->owned_flat_.emplace(*base->flat_);
    ov->flat_ = &*ov->owned_flat_;
    for (const auto& [name, value] : overrides) {
      bool found = false;
      for (reaction& rx : ov->owned_flat_->reactions_mut()) {
        if (rx.name != name) continue;
        rx.law = rx.law.with_constant(value, name);
        found = true;
      }
      if (!found)
        throw overlay_error(name, "no reaction with this name in the network");
    }
  }
  ov->base_ = std::move(base);
  return ov;
}

std::shared_ptr<const compiled_model> compiled_model::compile(const model& m) {
  auto cm = std::shared_ptr<compiled_model>(new compiled_model());
  cm->tree_ = &m;
  return finish(std::move(cm));
}

std::shared_ptr<const compiled_model> compiled_model::compile(model&& m) {
  auto cm = std::shared_ptr<compiled_model>(new compiled_model());
  cm->owned_tree_.emplace(std::move(m));
  cm->tree_ = &*cm->owned_tree_;
  return finish(std::move(cm));
}

std::shared_ptr<const compiled_model> compiled_model::compile(
    const reaction_network& n) {
  auto cm = std::shared_ptr<compiled_model>(new compiled_model());
  cm->flat_ = &n;
  return finish(std::move(cm));
}

std::shared_ptr<const compiled_model> compiled_model::compile(
    reaction_network&& n) {
  auto cm = std::shared_ptr<compiled_model>(new compiled_model());
  cm->owned_flat_.emplace(std::move(n));
  cm->flat_ = &*cm->owned_flat_;
  return finish(std::move(cm));
}

std::size_t compiled_model::num_rules() const noexcept {
  return tree_ != nullptr ? rules().size() : flat_->reactions().size();
}

std::size_t compiled_model::num_species() const noexcept {
  return tree_ != nullptr ? tree_->species().size() : flat_->num_species();
}

std::size_t compiled_model::num_observables() const noexcept {
  return tree_ != nullptr ? tree_->observables().size() : flat_->num_species();
}

void compiled_model::build_tree_tables() {
  tape_ = rate_tape::compile(*tree_);
  const auto& rules = tree_->rules();
  const std::size_t num_rules = rules.size();
  const std::size_t num_types = tree_->compartment_types().size();
  const std::size_t num_species = tree_->species().size();

  // Applicable-rule lists and rule -> slot maps, per compartment type.
  rules_for_type_.assign(num_types, {});
  slot_of_.assign(num_types, std::vector<std::int32_t>(num_rules, -1));
  for (std::size_t t = 0; t < num_types; ++t) {
    for (std::size_t j = 0; j < num_rules; ++j) {
      if (!rules[j].applies_in(static_cast<comp_type_id>(t))) continue;
      slot_of_[t][j] = static_cast<std::int32_t>(rules_for_type_[t].size());
      rules_for_type_[t].push_back(static_cast<std::uint32_t>(j));
    }
  }

  // Per-rule species footprints. A species bitmap per channel:
  //   w_local : host content the rule writes (reactants + products;
  //             dissolve releases arbitrary child content -> writes all)
  //   w_child : bound-child content the rule writes (consumed + produced)
  //   r_local : host content a mass-action rule reads (reactants)
  //   r_child : bound-child content a mass-action rule reads (content_req;
  //             wraps are immutable after creation, so wrap_req never
  //             invalidates)
  // Non-mass-action laws (MM/Hill/custom) read driver counts the footprint
  // cannot see, so they conservatively depend on every rule.
  std::vector<std::vector<char>> w_local(num_rules,
                                         std::vector<char>(num_species, 0));
  std::vector<std::vector<char>> w_child(num_rules,
                                         std::vector<char>(num_species, 0));
  std::vector<std::vector<char>> r_local(num_rules,
                                         std::vector<char>(num_species, 0));
  std::vector<std::vector<char>> r_child(num_rules,
                                         std::vector<char>(num_species, 0));
  std::vector<char> w_local_all(num_rules, 0);
  std::vector<char> structural(num_rules, 0);
  std::vector<char> conservative(num_rules, 0);
  writes_host_.assign(num_rules, 0);
  writes_child_.assign(num_rules, 0);

  for (std::size_t j = 0; j < num_rules; ++j) {
    const rule& r = rules[j];
    mark(w_local[j], r.reactants());
    mark(w_local[j], r.products());
    mark(r_local[j], r.reactants());
    if (r.child_pattern().has_value()) {
      mark(w_child[j], r.child_pattern()->content_req);
      mark(w_child[j], r.child_products());
      mark(r_child[j], r.child_pattern()->content_req);
    }
    conservative[j] = r.law().is_mass_action() ? 0 : 1;
    structural[j] =
        (!r.new_compartments().empty() || r.fate() != child_fate::keep) ? 1 : 0;
    if (r.fate() == child_fate::dissolve) w_local_all[j] = 1;
    writes_host_[j] = (!r.reactants().is_empty() || !r.products().is_empty() ||
                       r.fate() == child_fate::dissolve)
                          ? 1
                          : 0;
    writes_child_[j] = (r.child_pattern().has_value() &&
                        r.fate() == child_fate::keep &&
                        (!r.child_pattern()->content_req.is_empty() ||
                         !r.child_products().is_empty()))
                           ? 1
                           : 0;
  }

  // Dependency lists: after rule j fires, which rules must be re-enumerated
  // in the host block, the bound child's block, and the host's parent block.
  redo_host_.assign(num_rules, {});
  redo_child_.assign(num_rules, {});
  redo_parent_.assign(num_rules, {});
  for (std::size_t j = 0; j < num_rules; ++j) {
    for (std::size_t k = 0; k < num_rules; ++k) {
      const bool k_child = rules[k].child_pattern().has_value();
      const bool local_hit =
          (w_local_all[j] != 0 && any_bit(r_local[k])) ||
          intersects(r_local[k], w_local[j]);
      const bool child_hit =
          k_child && (structural[j] != 0 || intersects(r_child[k], w_child[j]));
      if (conservative[k] != 0 || local_hit || child_hit)
        redo_host_[j].push_back(static_cast<std::uint32_t>(k));
      if (conservative[k] != 0 || intersects(r_local[k], w_child[j]))
        redo_child_[j].push_back(static_cast<std::uint32_t>(k));
      const bool parent_hit =
          k_child && ((w_local_all[j] != 0 && any_bit(r_child[k])) ||
                      intersects(r_child[k], w_local[j]));
      if (conservative[k] != 0 || parent_hit)
        redo_parent_[j].push_back(static_cast<std::uint32_t>(k));
    }
  }

  // Observable evaluation plans: indices only, evaluated in one walk.
  observables_.reserve(tree_->observables().size());
  for (const observable& o : tree_->observables()) {
    observable_plan p;
    p.sp = o.sp;
    p.scoped = o.scope.has_value();
    p.scope = p.scoped ? *o.scope : 0;
    observables_.push_back(p);
  }
}

void compiled_model::observe_all(const term& state,
                                 std::vector<std::uint64_t>& scratch,
                                 std::vector<double>& out) const {
  util::expects(tree_ != nullptr, "observable plans need a tree model");
  const auto& observables = tables_->observables_;
  scratch.assign(observables.size(), 0);
  state.visit([&](const compartment& c) {
    for (std::size_t i = 0; i < observables.size(); ++i) {
      const observable_plan& p = observables[i];
      if (!p.scoped) {
        scratch[i] += c.content().count(p.sp) + c.wrap().count(p.sp);
      } else if (c.type() == p.scope) {
        scratch[i] += c.content().count(p.sp);
      }
    }
  });
  out.clear();
  out.reserve(observables.size());
  for (const std::uint64_t v : scratch) out.push_back(static_cast<double>(v));
}

}  // namespace cwc
