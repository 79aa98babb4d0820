// The records flowing through the CWC pipeline — completion notices,
// sample batches, per-quantum costs and window summaries — and the engine
// abstraction letting the same pipeline run CWC term models or flat
// reaction networks.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "cwc/cwc.hpp"
#include "stats/cut.hpp"
#include "util/check.hpp"

namespace cwcsim {

/// Either stochastic engine, same quantum/sampling contract.
class any_engine {
 public:
  /// Construct from the shared compiled artifact (tree or flat dispatch
  /// happens on the artifact's kind). No per-trajectory recompile.
  any_engine(std::shared_ptr<const cwc::compiled_model> cm, std::uint64_t seed,
             std::uint64_t id)
      : impl_(make_impl(std::move(cm), seed, id)) {}

  double time() const {
    return std::visit([](const auto& e) { return e.time(); }, impl_);
  }
  std::uint64_t steps() const {
    return std::visit([](const auto& e) { return e.steps(); }, impl_);
  }
  bool stalled() const {
    return std::visit([](const auto& e) { return e.stalled(); }, impl_);
  }
  void run_to(double t_end, double sample_period,
              std::vector<cwc::trajectory_sample>& out) {
    std::visit([&](auto& e) { e.run_to(t_end, sample_period, out); }, impl_);
  }

 private:
  static std::variant<cwc::engine, cwc::flat_engine> make_impl(
      std::shared_ptr<const cwc::compiled_model> cm, std::uint64_t seed,
      std::uint64_t id) {
    if (cm != nullptr && cm->is_tree())
      return std::variant<cwc::engine, cwc::flat_engine>(
          std::in_place_type<cwc::engine>, std::move(cm), seed, id);
    return std::variant<cwc::engine, cwc::flat_engine>(
        std::in_place_type<cwc::flat_engine>, std::move(cm), seed, id);
  }

  std::variant<cwc::engine, cwc::flat_engine> impl_;
};

/// Either model kind accepted by the pipeline. compile() runs once per run,
/// before any engine exists (run_builder::open() does it for every
/// backend), so every engine shares one immutable
/// cwc::compiled_model instead of rebuilding the static per-model tables
/// per trajectory; make_engine() enforces that order.
struct model_ref {
  const cwc::model* tree = nullptr;
  const cwc::reaction_network* flat = nullptr;
  /// The shared per-model artifact; null until compile() runs.
  std::shared_ptr<const cwc::compiled_model> compiled;

  /// Compile the model once (idempotent). Engines made afterwards share
  /// the artifact.
  void compile() {
    if (compiled != nullptr) return;
    compiled = tree != nullptr ? cwc::compiled_model::compile(*tree)
                               : cwc::compiled_model::compile(*flat);
  }

  std::size_t num_observables() const {
    if (compiled != nullptr) return compiled->num_observables();
    return tree != nullptr ? tree->observables().size() : flat->num_species();
  }
  /// An engine on the shared artifact. Requires compile() to have run.
  any_engine make_engine(std::uint64_t seed, std::uint64_t id) const {
    util::expects(compiled != nullptr,
                  "model_ref::make_engine requires compile() first");
    return any_engine(compiled, seed, id);
  }
};

/// Notification that a trajectory reached t_end.
struct task_done {
  std::uint64_t trajectory_id = 0;
  std::uint64_t quanta = 0;
  std::uint64_t steps = 0;
};

/// One quantum's worth of samples for one trajectory, streamed to the
/// alignment stage.
struct sample_batch {
  std::uint64_t trajectory_id = 0;
  std::vector<cwc::trajectory_sample> samples;
};

/// What one quantum cost (core/quantum.hpp): the work des::capture_workload
/// prices for the DES platform models.
struct quantum_record {
  std::uint64_t ssa_steps = 0;  ///< deterministic work measure
  std::uint32_t samples = 0;    ///< samples emitted in this quantum
};

/// Result of a statistical engine over one window (per-cut summaries).
/// Equal only when every field of every cut summary is, doubles compared
/// exactly: the bit-exactness every backend promises.
struct window_summary {
  std::uint64_t first_sample = 0;
  std::vector<stats::cut_summary> cuts;

  bool operator==(const window_summary&) const = default;
};

}  // namespace cwcsim
