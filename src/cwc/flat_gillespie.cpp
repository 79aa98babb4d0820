#include "cwc/flat_gillespie.hpp"

#include "util/check.hpp"

namespace cwc {

flat_engine::flat_engine(std::shared_ptr<const compiled_model> cm,
                         std::uint64_t seed, std::uint64_t trajectory_id)
    : cm_(std::move(cm)),
      net_(cm_ != nullptr ? cm_->flat() : nullptr),
      rng_(seed, trajectory_id) {
  util::expects(net_ != nullptr, "flat_engine needs a compiled flat network");
  state_ = net_->make_initial_state();
  props_.assign(net_->reactions().size(), 0.0);
}

double flat_engine::total_propensity() {
  double total = 0.0;
  for (std::size_t j = 0; j < props_.size(); ++j) {
    props_[j] = net_->propensity(j, state_);
    total += props_[j];
  }
  return total;
}

void flat_engine::fire(double target) {
  double cum = 0.0;
  for (std::size_t j = 0; j < props_.size(); ++j) {
    cum += props_[j];
    if (cum >= target) {
      net_->apply(j, state_);
      ++steps_;
      return;
    }
  }
  // Floating-point tail: fire the last feasible reaction.
  for (std::size_t j = props_.size(); j-- > 0;) {
    if (props_[j] > 0.0) {
      net_->apply(j, state_);
      ++steps_;
      return;
    }
  }
  util::ensures(false, "flat SSA selection failed");
}

bool flat_engine::step() {
  if (stalled_) return false;
  const double total = total_propensity();
  if (total <= 0.0) {
    stalled_ = true;
    return false;
  }
  // NB: not value_or() — it evaluates (and thus consumes) the exponential
  // draw even when the deferred reaction exists.
  const double t_next = pending_t_next_.has_value()
                            ? *pending_t_next_
                            : time_ + rng_.next_exponential(total);
  pending_t_next_.reset();
  fire(rng_.next_uniform_pos() * total);
  time_ = t_next;
  return true;
}

void flat_engine::record_sample(double at, std::vector<trajectory_sample>& out) {
  trajectory_sample s;
  s.time = at;
  s.values.reserve(net_->num_species());
  for (species_id sp = 0; sp < net_->num_species(); ++sp)
    s.values.push_back(static_cast<double>(state_.count(sp)));
  out.push_back(std::move(s));
}

void flat_engine::run_to(double t_end, double sample_period,
                         std::vector<trajectory_sample>& out) {
  util::expects(sample_period > 0.0, "sample period must be positive");
  util::expects(t_end >= time_, "run_to target precedes current time");

  // Indexed sampling grid with horizon tolerance (see sampling.hpp).
  const double horizon = t_end + sample_tolerance(t_end, sample_period);

  while (!stalled_) {
    const double total = total_propensity();
    if (total <= 0.0) {
      stalled_ = true;
      break;
    }
    // Keep reactions drawn past a previous quantum horizon (see the CWC
    // engine): the sample path is independent of the quantum size.
    const double t_next = pending_t_next_.has_value()
                              ? *pending_t_next_
                              : time_ + rng_.next_exponential(total);
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

  while (sample_time(next_sample_k_, sample_period) <= horizon) {
    record_sample(sample_time(next_sample_k_, sample_period), out);
    ++next_sample_k_;
  }
  time_ = t_end;
}

}  // namespace cwc
