// Compile the model once: an immutable per-model artifact shared by every
// engine instance and every backend.
//
// A simulation campaign farms out 10⁴–10⁵ trajectories of *one* model, yet
// the static lookup structure an engine needs — which rules apply in which
// compartment type, the rule→rule dependency index that drives incremental
// propensity maintenance, the rate tape that evaluates every propensity,
// the observable evaluation plans — is a pure function of the model.
// compiled_model hoists all of it out of the per-trajectory constructor:
// the session/backend layer compiles once before the farm spins up, every
// engine constructs from the shared artifact, the distributed runtime
// ships the model description once per run over the wire
// (dist/model_codec.hpp) and recompiles on arrival, and the DES/SIMT
// workload capture derives its description from the same artifact.
//
// Sharing and ownership rules:
//   - compiled_model is immutable after compile() returns; concurrent
//     engines on any number of threads may read one artifact without
//     synchronisation.
//   - Artifacts are always std::shared_ptr<const compiled_model>-held;
//     engines keep the pointer alive, so the artifact outlives every
//     engine constructed from it.
//   - The const-reference compile() overloads *view* the caller's model,
//     which must outlive the artifact (the same lifetime contract the
//     engines always had); the rvalue overloads take ownership (the
//     wire-decode path).
//
// The tree engine's rule dependency index has one implementation, here. A
// flat artifact holds no static tables: the flat engine reads the reaction
// table itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cwc/model.hpp"
#include "cwc/rate_tape.hpp"
#include "cwc/reaction_network.hpp"

namespace cwc {

class compiled_model {
 public:
  /// Compile a CWC term model the caller keeps alive. Throws
  /// util::precondition_error, naming the id, when a rule, the initial term
  /// or an observable names a species or compartment type the model never
  /// declared.
  static std::shared_ptr<const compiled_model> compile(const model& m);
  /// Compile a CWC term model, taking ownership (wire-decoded models).
  /// Throws as compile(const model&) does.
  static std::shared_ptr<const compiled_model> compile(model&& m);
  /// Compile a flat reaction network the caller keeps alive.
  static std::shared_ptr<const compiled_model> compile(const reaction_network& n);
  /// Compile a flat reaction network, taking ownership.
  static std::shared_ptr<const compiled_model> compile(reaction_network&& n);

  /// One overlay override: the named rule/reaction's mass-action constant
  /// becomes `value`.
  using rate_override = std::pair<std::string, double>;

  /// A rate-constant overlay of `base`: a cheap per-sweep-cell artifact that
  /// SHARES base's structure — the rule table, per-type rule lists, redo
  /// lists, write flags, and observable plans are never recopied or
  /// recomputed (and the compile counter does not tick). A tree overlay's
  /// patched constants live only in its copy of the rate tape, which every
  /// tree engine evaluates; a flat overlay patches a copy of the reaction
  /// table. Engines constructed from the overlay replay exactly the
  /// trajectory a full recompile of the patched model would produce, bit
  /// for bit.
  ///
  /// Throws overlay_error when a named rule does not exist, its law is not
  /// mass-action, or the value is negative, NaN or infinite
  /// (rate_law::with_constant). Overlaying an overlay is allowed; tables
  /// keep routing to the structural root.
  static std::shared_ptr<const compiled_model> overlay(
      std::shared_ptr<const compiled_model> base,
      const std::vector<rate_override>& overrides);

  /// True for artifacts produced by overlay() rather than compile().
  bool is_overlay() const noexcept { return base_ != nullptr; }

  /// Number of full compile() passes since process start — the proof knob
  /// for "one compile per sweep campaign": overlays never increment it.
  static std::uint64_t compile_count() noexcept {
    return compiles_.load(std::memory_order_relaxed);
  }

  compiled_model(const compiled_model&) = delete;
  compiled_model& operator=(const compiled_model&) = delete;

  /// The compiled tree model, or nullptr for a flat artifact.
  const model* tree() const noexcept { return tree_; }
  /// The compiled flat network, or nullptr for a tree artifact.
  const reaction_network* flat() const noexcept { return flat_; }
  bool is_tree() const noexcept { return tree_ != nullptr; }

  std::size_t num_rules() const noexcept;
  std::size_t num_species() const noexcept;
  /// Values per sample: tree observables, or every species of a flat net.
  std::size_t num_observables() const noexcept;

  // ---- tree tables (valid when is_tree()) ---------------------------
  // Accessors route through tables_ — `this` for compiled artifacts, the
  // structural root for overlays — so an overlay shares the root's
  // dependency index and plans without copying a single table.

  /// The rule table of a tree model, declaration order; an overlay shares
  /// its root's. Its rate laws carry the ROOT's constants: engines evaluate
  /// mass-action, Michaelis-Menten and Hill laws through tape(), and read a
  /// rule's law only to call a custom law, which cannot be overlaid.
  const std::vector<rule>& rules() const noexcept { return tree_->rules(); }

  /// Rules applicable inside a compartment of type `t`, declaration order.
  const std::vector<std::uint32_t>& rules_for_type(comp_type_id t) const {
    return tables_->rules_for_type_[t];
  }
  /// [rule] -> slot index inside a type-`t` match block, or -1.
  const std::vector<std::int32_t>& slot_of(comp_type_id t) const {
    return tables_->slot_of_[t];
  }
  /// After rule `j` fires: rules to re-enumerate in the host block, the
  /// bound child's block, and the host's parent block.
  const std::vector<std::uint32_t>& redo_host(std::uint32_t j) const {
    return tables_->redo_host_[j];
  }
  const std::vector<std::uint32_t>& redo_child(std::uint32_t j) const {
    return tables_->redo_child_[j];
  }
  const std::vector<std::uint32_t>& redo_parent(std::uint32_t j) const {
    return tables_->redo_parent_[j];
  }
  /// Rule `j` writes the host content / the kept bound child's content.
  bool writes_host(std::uint32_t j) const {
    return tables_->writes_host_[j] != 0;
  }
  bool writes_child(std::uint32_t j) const {
    return tables_->writes_child_[j] != 0;
  }

  /// One observable reduced to indices: no name or std::optional traffic
  /// on the sampling path. Public so the batch engine can evaluate the same
  /// plans over its SoA state with the same exact-integer accumulation.
  struct observable_plan {
    species_id sp = 0;
    comp_type_id scope = 0;
    bool scoped = false;
  };

  /// The compiled observable plans of a tree model, in observable order.
  const std::vector<observable_plan>& observable_plans() const noexcept {
    return tables_->observables_;
  }

  /// The rate-law bytecode tape of a tree model (one program per rule,
  /// declaration order) — the one propensity evaluator of the scalar and
  /// batch tree engines, and where an overlay's constants live. Empty for
  /// flat artifacts.
  const rate_tape& tape() const noexcept { return tape_; }

  /// Evaluate every observable of a tree model in ONE pre-order walk
  /// (`model::observe_all` walks once per observable). `scratch` is the
  /// caller's reusable integer accumulator — counts are summed exactly in
  /// std::uint64_t, so the result is bit-identical to the per-observable
  /// walks regardless of traversal order. No allocation once `scratch`
  /// and `out` have warmed-up capacity.
  void observe_all(const term& state, std::vector<std::uint64_t>& scratch,
                   std::vector<double>& out) const;

 private:
  compiled_model() = default;

  void build_tree_tables();
  static std::shared_ptr<const compiled_model> finish(
      std::shared_ptr<compiled_model> cm);

  const model* tree_ = nullptr;
  const reaction_network* flat_ = nullptr;
  std::optional<model> owned_tree_;             ///< wire-decode ownership
  std::optional<reaction_network> owned_flat_;  ///< wire-decode / flat-overlay ownership

  /// Where the shared static tables live: `this` for compiled artifacts,
  /// the structural ROOT (never an intermediate overlay) for overlays.
  const compiled_model* tables_ = this;
  /// Keeps the root alive for overlays; nullptr for compiled artifacts.
  std::shared_ptr<const compiled_model> base_;

  static std::atomic<std::uint64_t> compiles_;  ///< full-compile counter

  // Tree tables (see accessor docs).
  std::vector<std::vector<std::uint32_t>> rules_for_type_;
  std::vector<std::vector<std::int32_t>> slot_of_;
  std::vector<std::vector<std::uint32_t>> redo_host_;
  std::vector<std::vector<std::uint32_t>> redo_child_;
  std::vector<std::vector<std::uint32_t>> redo_parent_;
  std::vector<std::uint8_t> writes_host_;
  std::vector<std::uint8_t> writes_child_;
  std::vector<observable_plan> observables_;
  rate_tape tape_;
};

}  // namespace cwc
