// Direct-method SSA over flat reaction networks (Gillespie 1977) with the
// same quantum/sampling contract as the CWC term engine, so both plug into
// the same simulation pipeline. It also shares the term engine's step
// arithmetic: a network and its one-compartment model text give
// bit-identical trajectories (tests/cwc_engine_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cwc/compiled_model.hpp"
#include "cwc/gillespie.hpp"  // trajectory_sample
#include "cwc/reaction_network.hpp"
#include "cwc/sampling.hpp"
#include "util/rng.hpp"

namespace cwc {

class flat_engine {
 public:
  /// Construct from a shared compiled artifact (the farm path); the engine
  /// keeps the artifact alive.
  flat_engine(std::shared_ptr<const compiled_model> cm, std::uint64_t seed,
              std::uint64_t trajectory_id);

  double time() const noexcept { return time_; }
  const multiset& state() const noexcept { return state_; }
  std::uint64_t steps() const noexcept { return steps_; }
  bool stalled() const noexcept { return stalled_; }

  /// One SSA step; false when no reaction can fire.
  bool step();

  /// Advance to exactly t_end, sampling every species count at each crossed
  /// multiple of sample_period (including t=0 on the first call).
  void run_to(double t_end, double sample_period,
              std::vector<trajectory_sample>& out);

 private:
  void record_sample(double at, std::vector<trajectory_sample>& out);
  double total_propensity();
  void fire(double target);

  std::shared_ptr<const compiled_model> cm_;  ///< shared immutable artifact
  const reaction_network* net_;               ///< == cm_->flat()
  multiset state_;
  std::vector<double> props_;  // per-reaction propensity scratch
  double time_ = 0.0;
  std::uint64_t next_sample_k_ = 0;  ///< next sampling-grid index (see sampling.hpp)
  std::uint64_t steps_ = 0;
  bool stalled_ = false;
  util::rng_stream rng_;
  /// Absolute time of a reaction drawn but deferred past a quantum horizon.
  std::optional<double> pending_t_next_;
};

}  // namespace cwc
