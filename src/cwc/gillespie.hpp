// Gillespie's Stochastic Simulation Algorithm (direct method, 1977) over
// CWC terms, with incremental propensity maintenance: every compartment
// owns a cached *match block* (its per-rule match lists plus a propensity
// subtotal), and after a rule fires only the compartments it touched —
// host, bound child, host's parent, created/dissolved/removed nodes — are
// re-enumerated, driven by a rule→rule dependency index built from the
// rules' reactant/product/child-pattern footprints (non-mass-action rate
// laws conservatively depend on everything). The dependency index and the
// rest of the static per-model tables live in cwc::compiled_model
// (compiled_model.hpp) — compiled once, shared by every trajectory's
// engine. Every match's propensity comes from the model's rate tape
// (compiled_model::tape(), rate_tape.hpp), the evaluator the batch engine
// runs too, over each compartment's dense count rows; the engine sizes
// those rows to the model's species count when it first sees the
// compartment. A custom law gets the tape's combinatorics and is called
// with its rate_ctx. The steady-state step is allocation-free: match lists
// and the sample values buffer are reused.
//
// Reproducibility: every engine owns an rng_stream keyed by
// (seed, trajectory id), so a trajectory's sample path is a pure function
// of (model, seed, id) — independent of scheduling, platform, or worker
// count. The multicore/distributed/SIMT equivalence tests rely on this.
// The incremental cache preserves the enumeration order (pre-order tree
// walk, rules in declaration order, children in index order) and the RNG
// consumption bit-for-bit relative to engine_mode::reference, the naive
// collector that re-walks the whole tree every step
// (tests/cwc_incremental_test.cpp locksteps the two).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cwc/compiled_model.hpp"
#include "cwc/model.hpp"
#include "cwc/sampling.hpp"
#include "util/rng.hpp"

namespace cwc {

/// One sample point of a trajectory: observable values at a sample time.
struct trajectory_sample {
  double time = 0.0;
  std::vector<double> values;
};

/// How the engine maintains its match set.
enum class engine_mode {
  /// Cached per-compartment match blocks refreshed through the rule
  /// dependency index (the default, and the fast path).
  incremental,
  /// Re-enumerate every (compartment, rule, child) match from scratch on
  /// every step — the naive golden baseline the incremental cache is
  /// locked against. Sample paths are bit-identical across modes.
  reference,
};

class engine {
 public:
  /// Construct from a shared compiled artifact (the farm path): no static
  /// tables are rebuilt — construction is just the initial-state clone plus
  /// the match-cache warm-up. The engine keeps the artifact alive.
  engine(std::shared_ptr<const compiled_model> cm, std::uint64_t seed,
         std::uint64_t trajectory_id,
         engine_mode mode = engine_mode::incremental);

  double time() const noexcept { return time_; }
  const term& state() const noexcept { return *state_; }
  std::uint64_t trajectory_id() const noexcept { return trajectory_id_; }

  /// Number of SSA steps executed so far (the deterministic work measure
  /// used for DES trace capture).
  std::uint64_t steps() const noexcept { return steps_; }

  /// True once the term admits no further reaction (total propensity 0).
  bool stalled() const noexcept { return stalled_; }

  /// Execute one SSA step. Returns false (and sets stalled) when no
  /// reaction can fire; simulation time is then unchanged.
  bool step();

  /// Advance simulation time to exactly `t_end`, appending one sample per
  /// crossed sample point (t = k * sample_period, including t=0 on the
  /// first call) to `out`. The SSA state is piecewise constant, so each
  /// sample records the state immediately before the crossing reaction.
  void run_to(double t_end, double sample_period,
              std::vector<trajectory_sample>& out);

  /// Cross-check the cached match blocks against a fresh full collect:
  /// match sets (rule, child, order), propensities, block subtotals and
  /// the total must agree bit for bit. Allocation-free. Builds without
  /// NDEBUG run this automatically every `kConsistencyPeriod` steps; the
  /// lockstep test calls it directly.
  bool check_match_cache() const;

  /// How often debug builds self-check the cache (in SSA steps).
  static constexpr std::uint64_t kConsistencyPeriod = 256;

 private:
  static constexpr std::uint32_t kNoChild = 0xFFFFFFFFu;

  /// One cached match: which child is bound (kNoChild for none) and the
  /// propensity computed when the owning slot was last refreshed.
  struct match_rec {
    std::uint32_t child = kNoChild;
    double propensity = 0.0;
  };

  /// Cached matches of one rule inside one compartment, in child order.
  struct rule_slot {
    std::uint32_t rule = 0;          ///< index into model_->rules()
    std::vector<match_rec> matches;  ///< storage reused across refreshes
  };

  /// A compartment's match block: one slot per applicable rule (rule
  /// declaration order) plus the block's propensity subtotal, defined as
  /// the left-to-right sum over all slot matches.
  struct comp_block {
    compartment* comp = nullptr;
    compartment* parent = nullptr;  ///< nullptr for the root
    std::vector<rule_slot> slots;
    double subtotal = 0.0;
  };

  // ---- cache maintenance -------------------------------------------
  comp_block& ensure_block(compartment& c);
  /// Invoke f(child, propensity) for every positive-propensity match of
  /// rule `rule_idx` inside `c`, children in index order (kNoChild for a
  /// match that binds none). The refresh and the self-check share it.
  template <typename F>
  void visit_matches(const compartment& c, std::uint32_t rule_idx,
                     F&& f) const;
  void enumerate_slot(comp_block& b, rule_slot& sl);
  void resum_block(comp_block& b);
  void rebuild_order();
  void refresh_all();
  void refresh_block(comp_block& b, const std::vector<std::uint32_t>& rules);
  void refresh_after_fire(std::uint32_t fired, compartment* host);

  /// Total propensity of the current state: the pre-order fold of the
  /// cached block subtotals. Both modes keep the cache consistent with the
  /// live tree between steps (incremental via refresh_after_fire, reference
  /// via a full refresh_all after every firing).
  double current_total();

  /// Select and apply the match at cumulative position `target` in
  /// (0, total], then refresh the touched blocks.
  void fire(double target);

  void record_sample(double at, std::vector<trajectory_sample>& out);

  std::shared_ptr<const compiled_model> cm_;  ///< shared immutable artifact
  const model* model_;                        ///< == cm_->tree()
  std::unique_ptr<term> state_;
  double time_ = 0.0;
  std::uint64_t next_sample_k_ = 0;  ///< next sampling-grid index (see sampling.hpp)
  std::uint64_t steps_ = 0;
  std::uint64_t trajectory_id_;
  bool stalled_ = false;
  util::rng_stream rng_;
  engine_mode mode_;

  // Match cache: block per live compartment plus the pre-order view the
  // selection scan and the total fold walk. Raw pointers in order_ stay
  // valid across engine moves (map nodes are stable).
  std::unordered_map<const compartment*, std::unique_ptr<comp_block>> cache_;
  std::vector<comp_block*> order_;

  // The static per-model tables (rules_for_type, slot_of, the redo lists,
  // write flags, observable plans) live in *cm_ — compiled once per model,
  // shared by every trajectory.

  apply_effects fx_;  ///< reused across steps (no per-step allocation)
  std::vector<std::uint64_t> obs_scratch_;  ///< observable accumulators
  /// Absolute time of a reaction drawn but deferred past a quantum horizon.
  std::optional<double> pending_t_next_;
};

}  // namespace cwc
