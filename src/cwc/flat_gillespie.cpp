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

namespace {

/// Propensity of `r` in `state`, whose dense count row is `x`: the reactant
/// factors multiply in declaration order, a zero factor gives +0.0 without
/// evaluating the law, mass action is the constant times the factors, and
/// MM, Hill and custom laws evaluate on the state itself.
inline double propensity(const reaction& r, const multiset& state,
                         const std::uint64_t* x) {
  double comb = 1.0;
  for (const stoich& s : r.reactants) {
    comb *= choose(x[s.sp], s.n);
    if (comb == 0.0) return 0.0;
  }
  if (r.law.is_mass_action()) return r.law.constant() * comb;
  return r.law.evaluate(rate_ctx{state, nullptr, comb});
}

}  // namespace

double flat_engine::total_propensity() {
  // The left-to-right fold in declaration order: the same arithmetic as the
  // tree engine's one-compartment block, so both step a network bit for bit.
  const std::uint64_t* x = state_.row();
  const std::vector<reaction>& rs = net_->reactions();
  double total = 0.0;
  for (std::size_t j = 0; j < rs.size(); ++j) {
    props_[j] = propensity(rs[j], state_, x);
    total += props_[j];
  }
  return total;
}

void flat_engine::fire(double target) {
  const std::size_t n = props_.size();
  std::size_t j = 0;
  for (double cum = 0.0; j < n; ++j) {
    cum += props_[j];
    if (cum >= target) break;
  }
  if (j == n) {
    // Floating-point tail: fire the last feasible reaction.
    do {
      util::ensures(j > 0, "flat SSA selection failed");
      --j;
    } while (!(props_[j] > 0.0));
  }
  // Unchecked update: only a reaction with a positive propensity is
  // selected, so its reactants (distinct, see add_reaction) are present.
  std::uint64_t* x = state_.row();
  const reaction& r = net_->reactions()[j];
  for (const stoich& s : r.reactants) x[s.sp] -= s.n;
  for (const stoich& s : r.products) x[s.sp] += s.n;
  ++steps_;
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
  const std::uint64_t* x = state_.row();
  out.push_back(
      trajectory_sample{at, std::vector<double>(x, x + net_->num_species())});
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
