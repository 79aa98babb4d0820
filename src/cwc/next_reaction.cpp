#include "cwc/next_reaction.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cwc {

next_reaction_engine::next_reaction_engine(
    std::shared_ptr<const compiled_model> cm, std::uint64_t seed,
    std::uint64_t trajectory_id)
    : cm_(std::move(cm)),
      net_(cm_ != nullptr ? cm_->flat() : nullptr),
      rng_(seed, trajectory_id) {
  util::expects(net_ != nullptr,
                "next_reaction_engine needs a compiled flat network");
  state_ = net_->make_initial_state();
  const std::size_t r = net_->reactions().size();
  propensity_.resize(r, 0.0);
  fire_at_.resize(r, kNever);
  heap_.resize(r);
  pos_.resize(r);
  // The reaction dependency graph is precomputed by the compiler
  // (compiled_model::build_flat_tables) and shared across trajectories.
  init_clocks();
}

void next_reaction_engine::init_clocks() {
  const std::size_t r = propensity_.size();
  for (std::size_t j = 0; j < r; ++j) {
    propensity_[j] = net_->propensity(j, state_);
    fire_at_[j] = propensity_[j] > 0.0
                      ? rng_.next_exponential(propensity_[j])
                      : kNever;
    heap_[j] = static_cast<std::uint32_t>(j);
    pos_[j] = static_cast<std::uint32_t>(j);
  }
  // Heapify.
  for (std::size_t i = r; i-- > 0;) sift_down(i);
}

void next_reaction_engine::heap_swap(std::size_t a, std::size_t b) {
  std::swap(heap_[a], heap_[b]);
  pos_[heap_[a]] = static_cast<std::uint32_t>(a);
  pos_[heap_[b]] = static_cast<std::uint32_t>(b);
}

void next_reaction_engine::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (fire_at_[heap_[i]] >= fire_at_[heap_[parent]]) return;
    heap_swap(i, parent);
    i = parent;
  }
}

void next_reaction_engine::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t best = i;
    const std::size_t l = 2 * i + 1, rgt = 2 * i + 2;
    if (l < n && fire_at_[heap_[l]] < fire_at_[heap_[best]]) best = l;
    if (rgt < n && fire_at_[heap_[rgt]] < fire_at_[heap_[best]]) best = rgt;
    if (best == i) return;
    heap_swap(i, best);
    i = best;
  }
}

void next_reaction_engine::heap_update(std::size_t reaction, double new_time) {
  const double old = fire_at_[reaction];
  fire_at_[reaction] = new_time;
  const std::size_t p = pos_[reaction];
  if (new_time < old) {
    sift_up(p);
  } else {
    sift_down(p);
  }
}

bool next_reaction_engine::stalled() const noexcept {
  return heap_.empty() || fire_at_[heap_[0]] == kNever;
}

void next_reaction_engine::update_after_fire(std::size_t fired) {
  net_->apply(fired, state_);
  ++steps_;

  // Fired reaction: fresh exponential.
  propensity_[fired] = net_->propensity(fired, state_);
  heap_update(fired, propensity_[fired] > 0.0
                         ? time_ + rng_.next_exponential(propensity_[fired])
                         : kNever);

  // Dependent reactions: rescale the remaining waiting time (Gibson-Bruck
  // clock reuse — exact, no extra randomness needed).
  for (const std::uint32_t k : cm_->depends(fired)) {
    const double a_old = propensity_[k];
    const double a_new = net_->propensity(k, state_);
    propensity_[k] = a_new;
    double t_new;
    if (a_new <= 0.0) {
      t_new = kNever;
    } else if (a_old > 0.0 && fire_at_[k] != kNever) {
      t_new = time_ + (a_old / a_new) * (fire_at_[k] - time_);
    } else {
      t_new = time_ + rng_.next_exponential(a_new);
    }
    heap_update(k, t_new);
  }
}

bool next_reaction_engine::step() {
  if (stalled()) return false;
  const std::uint32_t j = heap_[0];
  time_ = fire_at_[j];
  update_after_fire(j);
  return true;
}

void next_reaction_engine::run_to(double t_end, double sample_period,
                                  std::vector<trajectory_sample>& out) {
  util::expects(sample_period > 0.0, "sample period must be positive");
  util::expects(t_end >= time_, "run_to target precedes current time");

  // Indexed sampling grid with horizon tolerance (see sampling.hpp).
  const double horizon = t_end + sample_tolerance(t_end, sample_period);
  auto sample_now = [&] {
    trajectory_sample s;
    s.time = sample_time(next_sample_k_, sample_period);
    s.values.reserve(net_->num_species());
    for (species_id sp = 0; sp < net_->num_species(); ++sp)
      s.values.push_back(static_cast<double>(state_.count(sp)));
    out.push_back(std::move(s));
  };

  while (!stalled()) {
    const double t_next = fire_at_[heap_[0]];
    while (sample_time(next_sample_k_, sample_period) <= horizon &&
           sample_time(next_sample_k_, sample_period) <= t_next) {
      sample_now();
      ++next_sample_k_;
    }
    if (t_next > t_end) {
      // The pending clock persists in the heap — quantum-composable by
      // construction (absolute firing times never change on re-entry).
      time_ = t_end;
      return;
    }
    const std::uint32_t j = heap_[0];
    time_ = t_next;
    update_after_fire(j);
  }

  while (sample_time(next_sample_k_, sample_period) <= horizon) {
    sample_now();
    ++next_sample_k_;
  }
  time_ = t_end;
}

}  // namespace cwc
