// Gibson-Bruck Next Reaction Method (J. Phys. Chem. A, 2000) for flat
// reaction networks: an exact SSA variant that re-draws only the fired
// reaction's clock and rescales the others, using a dependency graph and an
// indexed priority queue — O(log R) per step instead of O(R). StochKit
// (the baseline simulator the paper discusses, §II-B) ships the same
// algorithm; here it cross-validates the direct-method engines.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "cwc/compiled_model.hpp"
#include "cwc/gillespie.hpp"  // trajectory_sample
#include "cwc/reaction_network.hpp"
#include "cwc/sampling.hpp"
#include "util/rng.hpp"

namespace cwc {

class next_reaction_engine {
 public:
  /// Construct from a shared compiled artifact (the farm path): the
  /// reaction dependency graph comes precomputed from the compiler
  /// (compiled_model::depends) instead of being rebuilt per trajectory.
  next_reaction_engine(std::shared_ptr<const compiled_model> cm,
                       std::uint64_t seed, std::uint64_t trajectory_id);

  double time() const noexcept { return time_; }
  const multiset& state() const noexcept { return state_; }
  std::uint64_t steps() const noexcept { return steps_; }
  bool stalled() const noexcept;

  /// One reaction firing; false when no reaction can ever fire again.
  bool step();

  /// Advance to exactly t_end, sampling every species at each crossed
  /// multiple of sample_period (same contract as the other engines).
  void run_to(double t_end, double sample_period,
              std::vector<trajectory_sample>& out);

 private:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  void init_clocks();
  void update_after_fire(std::size_t fired);

  // ---- indexed binary min-heap over absolute firing times --------------
  void heap_swap(std::size_t a, std::size_t b);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void heap_update(std::size_t reaction, double new_time);

  std::shared_ptr<const compiled_model> cm_;  ///< shared immutable artifact
  const reaction_network* net_;               ///< == cm_->flat()
  multiset state_;
  double time_ = 0.0;
  std::uint64_t next_sample_k_ = 0;  ///< next sampling-grid index (see sampling.hpp)
  std::uint64_t steps_ = 0;
  util::rng_stream rng_;

  std::vector<double> propensity_;
  std::vector<double> fire_at_;      // absolute times (kNever = disabled)
  std::vector<std::uint32_t> heap_;  // reaction indices
  std::vector<std::uint32_t> pos_;   // reaction -> heap position
};

}  // namespace cwc
