#include "cwc/gillespie.hpp"

#include <bit>

#include "util/check.hpp"

namespace cwc {

namespace {

/// The cache holds exactly what a fresh collect computes, so the self-check
/// compares doubles bit for bit.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Widen a compartment's count rows to the model's species count: the rate
/// tape indexes them densely by every species id the model declares.
void size_rows(compartment& c, std::size_t num_species) {
  c.content().grow_to(num_species);
  c.wrap().grow_to(num_species);
}

}  // namespace

engine::engine(std::shared_ptr<const compiled_model> cm, std::uint64_t seed,
               std::uint64_t trajectory_id, engine_mode mode)
    : cm_(std::move(cm)),
      model_(cm_ != nullptr ? cm_->tree() : nullptr),
      trajectory_id_(trajectory_id),
      rng_(seed, trajectory_id),
      mode_(mode) {
  util::expects(model_ != nullptr, "cwc::engine needs a compiled tree model");
  state_ = model_->make_initial_state();
  rebuild_order();  // builds and enumerates a block for every compartment
}

engine::comp_block& engine::ensure_block(compartment& c) {
  auto it = cache_.find(&c);
  if (it != cache_.end()) return *it->second;
  // First sight of `c` (the initial term, or a compartment a firing
  // created): size its rows, and its children's, which the pre-order walk
  // reaches only after this block has enumerated its child-pattern rules.
  size_rows(c, cm_->num_species());
  for (const auto& child : c.children()) size_rows(*child, cm_->num_species());
  auto blk = std::make_unique<comp_block>();
  blk->comp = &c;
  const auto& applicable = cm_->rules_for_type(c.type());
  blk->slots.reserve(applicable.size());
  for (std::uint32_t j : applicable) blk->slots.push_back(rule_slot{j, {}});
  for (rule_slot& sl : blk->slots) enumerate_slot(*blk, sl);
  resum_block(*blk);
  comp_block& ref = *blk;
  cache_.emplace(&c, std::move(blk));
  return ref;
}

template <typename F>
void engine::visit_matches(const compartment& c, std::uint32_t rule_idx,
                           F&& f) const {
  const rate_tape& tape = cm_->tape();
  const tape_program& pg = tape.program(rule_idx);
  const std::uint64_t* host = c.content().row();
  const auto propensity = [&](const compartment* child) {
    const std::uint64_t* wrap =
        child != nullptr ? child->wrap().row() : nullptr;
    const std::uint64_t* content =
        child != nullptr ? child->content().row() : nullptr;
    if (pg.head != tape_head::custom)
      return tape.eval(pg, host, wrap, content, 1);
    const double comb = tape.combinations(pg, host, wrap, content, 1);
    if (comb == 0.0) return 0.0;
    return cm_->rules()[rule_idx].law().evaluate(rate_ctx{
        c.content(), child != nullptr ? &child->content() : nullptr, comb});
  };
  if (!pg.has_child) {
    const double p = propensity(nullptr);
    if (p > 0.0) f(kNoChild, p);
    return;
  }
  const auto& children = c.children();
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (children[i]->type() != pg.child_type) continue;
    const double p = propensity(children[i].get());
    if (p > 0.0) f(static_cast<std::uint32_t>(i), p);
  }
}

void engine::enumerate_slot(comp_block& b, rule_slot& sl) {
  sl.matches.clear();  // capacity retained: no allocation once warmed up
  visit_matches(*b.comp, sl.rule, [&](std::uint32_t child, double p) {
    sl.matches.push_back(match_rec{child, p});
  });
}

void engine::resum_block(comp_block& b) {
  // Canonical left-to-right fold (rule declaration order, children in index
  // order): a block refreshed piecemeal re-sums to the bit-identical value a
  // fresh enumeration would produce.
  double sub = 0.0;
  for (const rule_slot& sl : b.slots)
    for (const match_rec& mr : sl.matches) sub += mr.propensity;
  b.subtotal = sub;
}

void engine::rebuild_order() {
  order_.clear();
  state_->visit_with_parent([&](compartment& c, compartment* parent) {
    comp_block& b = ensure_block(c);
    b.parent = parent;
    order_.push_back(&b);
  });
}

void engine::refresh_all() {
  // The naive reference collector: walk the whole tree (which sizes the rows
  // of every compartment a firing created) and then re-enumerate every
  // (compartment, rule, child) match from the current state.
  rebuild_order();
  for (comp_block* b : order_) {
    for (rule_slot& sl : b->slots) enumerate_slot(*b, sl);
    resum_block(*b);
  }
}

void engine::refresh_block(comp_block& b,
                           const std::vector<std::uint32_t>& rules) {
  const auto& slots_by_rule = cm_->slot_of(b.comp->type());
  bool any = false;
  for (std::uint32_t k : rules) {
    const std::int32_t si = slots_by_rule[k];
    if (si < 0) continue;  // rule not applicable in this compartment type
    enumerate_slot(b, b.slots[static_cast<std::size_t>(si)]);
    any = true;
  }
  if (any) resum_block(b);
}

void engine::refresh_after_fire(std::uint32_t fired, compartment* host) {
  if (fx_.structure_changed) rebuild_order();
  comp_block& hb = *cache_.at(host);
  refresh_block(hb, cm_->redo_host(fired));
  if (fx_.bound_child != nullptr && cm_->writes_child(fired))
    refresh_block(*cache_.at(fx_.bound_child), cm_->redo_child(fired));
  if (cm_->writes_host(fired) && hb.parent != nullptr)
    refresh_block(*cache_.at(hb.parent), cm_->redo_parent(fired));
}

double engine::current_total() {
  double total = 0.0;
  for (const comp_block* b : order_) total += b->subtotal;
  return total;
}

void engine::fire(double target) {
  // Two-level selection: a prefix walk over the per-compartment block
  // subtotals finds the compartment, then a linear scan inside that block's
  // short match list finds the (rule, child) match. Identical arithmetic in
  // both engine modes keeps sample paths bit-for-bit reproducible.
  comp_block* chosen = nullptr;
  std::uint32_t rule_idx = 0;
  std::uint32_t child = kNoChild;
  bool found = false;

  double cum = 0.0;
  for (comp_block* b : order_) {
    const double with = cum + b->subtotal;
    if (b->subtotal > 0.0 && with >= target) {
      double inner = cum;
      for (rule_slot& sl : b->slots) {
        for (const match_rec& mr : sl.matches) {
          inner += mr.propensity;
          if (inner >= target) {
            chosen = b;
            rule_idx = sl.rule;
            child = mr.child;
            found = true;
            break;
          }
        }
        if (found) break;
      }
      if (!found) {
        // Floating-point tail inside the block: fall back to its last match.
        for (auto it = b->slots.rbegin(); it != b->slots.rend() && !found;
             ++it) {
          if (it->matches.empty()) continue;
          chosen = b;
          rule_idx = it->rule;
          child = it->matches.back().child;
          found = true;
        }
      }
      break;  // selection always terminates at the first qualifying block
    }
    cum = with;
  }
  if (!found) {
    // Floating-point tail at the grand level: fall back to the last match
    // anywhere (mirrors the historical fallback; unreachable for finite
    // positive propensities since the block fold reproduces the total).
    for (auto bit = order_.rbegin(); bit != order_.rend() && !found; ++bit) {
      for (auto it = (*bit)->slots.rbegin();
           it != (*bit)->slots.rend() && !found; ++it) {
        if (it->matches.empty()) continue;
        chosen = *bit;
        rule_idx = it->rule;
        child = it->matches.back().child;
        found = true;
      }
    }
  }
  util::ensures(found, "SSA selection on empty match set");

  const rule& r = cm_->rules()[rule_idx];
  rule::match m;
  if (child != kNoChild) m.child_index = child;
  compartment* host = chosen->comp;
  r.apply(*host, m, &fx_);
  ++steps_;

  // Drop cache entries for compartments the firing destroyed *before* the
  // nodes are freed (a later allocation may reuse the address).
  if (fx_.removed != nullptr)
    fx_.removed->visit([&](compartment& dead) { cache_.erase(&dead); });

  if (mode_ == engine_mode::incremental) {
    refresh_after_fire(rule_idx, host);
#ifndef NDEBUG
    if (steps_ % kConsistencyPeriod == 0)
      util::ensures(check_match_cache(),
                    "incremental match cache diverged from a fresh collect");
#endif
  } else {
    // Reference mode re-collects eagerly so the cache (and the pre-order
    // view in order_ — no dangling block pointers after a structural
    // rewrite) is always consistent with the live tree.
    refresh_all();
  }
  fx_.removed.reset();
}

bool engine::step() {
  if (stalled_) return false;
  const double total = current_total();
  if (total <= 0.0) {
    stalled_ = true;
    return false;
  }
  // NB: not value_or() — that would consume an exponential even when a
  // deferred reaction exists (value_or evaluates its argument eagerly).
  const double t_next = pending_t_next_.has_value()
                            ? *pending_t_next_
                            : time_ + rng_.next_exponential(total);
  pending_t_next_.reset();
  fire(rng_.next_uniform_pos() * total);
  time_ = t_next;
  return true;
}

void engine::record_sample(double at, std::vector<trajectory_sample>& out) {
  trajectory_sample s;
  s.time = at;
  // One right-sized allocation for the sample's own buffer; the compiled
  // observable plans evaluate every observable in a single tree walk.
  cm_->observe_all(*state_, obs_scratch_, s.values);
  out.push_back(std::move(s));
}

void engine::run_to(double t_end, double sample_period,
                    std::vector<trajectory_sample>& out) {
  util::expects(sample_period > 0.0, "sample period must be positive");
  util::expects(t_end >= time_, "run_to target precedes current time");

  // Sample times come from the indexed grid (k * sample_period), compared
  // against the horizon with a tolerance, so no sample point is ever lost
  // to floating-point truncation (30 / 0.1 landing at 299.999…).
  const double horizon = t_end + sample_tolerance(t_end, sample_period);

  while (true) {
    if (stalled_) break;
    const double total = current_total();
    if (total <= 0.0) {
      stalled_ = true;
      break;
    }
    // A reaction drawn in a previous quantum that lands beyond that
    // quantum's horizon is *kept* (the state cannot change across the
    // boundary), so the sample path is bit-for-bit independent of the
    // quantum size — quantum is a pure scheduling knob (paper Table I).
    const double t_next = pending_t_next_.has_value()
                              ? *pending_t_next_
                              : time_ + rng_.next_exponential(total);

    // Emit samples for every sample point the jump crosses (the SSA state
    // is right-continuous piecewise constant).
    while (sample_time(next_sample_k_, sample_period) <= horizon &&
           sample_time(next_sample_k_, sample_period) <= t_next) {
      record_sample(sample_time(next_sample_k_, sample_period), out);
      ++next_sample_k_;
    }
    if (t_next > t_end) {
      pending_t_next_ = t_next;
      time_ = t_end;
      return;
    }

    pending_t_next_.reset();
    fire(rng_.next_uniform_pos() * total);
    time_ = t_next;
  }

  // Stalled: the state is frozen; emit the remaining samples up to t_end.
  while (sample_time(next_sample_k_, sample_period) <= horizon) {
    record_sample(sample_time(next_sample_k_, sample_period), out);
    ++next_sample_k_;
  }
  time_ = t_end;
}

bool engine::check_match_cache() const {
  bool ok = true;
  std::size_t idx = 0;
  double cached_total = 0.0;
  double fresh_total = 0.0;
  state_->visit([&](const compartment& c) {
    if (!ok) return;
    if (idx >= order_.size() || order_[idx]->comp != &c) {
      ok = false;  // pre-order view out of sync with the live tree
      return;
    }
    const comp_block& b = *order_[idx++];
    const auto& applicable = cm_->rules_for_type(c.type());
    if (b.slots.size() != applicable.size()) {
      ok = false;
      return;
    }
    double fresh_sub = 0.0;
    for (std::size_t si = 0; si < applicable.size() && ok; ++si) {
      const rule_slot& sl = b.slots[si];
      if (sl.rule != applicable[si]) {
        ok = false;
        return;
      }
      std::size_t mi = 0;
      visit_matches(c, sl.rule, [&](std::uint32_t child, double p) {
        fresh_sub += p;
        if (mi >= sl.matches.size()) {
          ok = false;
          return;
        }
        const match_rec& mr = sl.matches[mi++];
        if (mr.child != child || !same_bits(mr.propensity, p)) ok = false;
      });
      if (mi != sl.matches.size()) ok = false;
    }
    if (!ok || !same_bits(fresh_sub, b.subtotal)) {
      ok = false;
      return;
    }
    cached_total += b.subtotal;
    fresh_total += fresh_sub;
  });
  if (idx != order_.size()) ok = false;
  return ok && same_bits(fresh_total, cached_total);
}

}  // namespace cwc
