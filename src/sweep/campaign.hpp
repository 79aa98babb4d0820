// Sweep campaigns: ONE model × M parameter cells × N trajectories each,
// with online per-cell reductions.
//
//   auto rep = cwcsim::sweep_builder()
//                  .model(m)
//                  .config(cfg)                    // N = cfg.num_trajectories
//                  .backend(cwcsim::multicore{32}) // farm, or batched lanes
//                  .plan(cwcsim::sweep::plan()
//                            .axis("k1", {0.1, 0.3, 1.0})
//                            .axis_linspace("k2", 0.5, 2.0, 4))
//                  .on_cell_done([](std::uint32_t c) { /* stream it */ })
//                  .run();
//
// The model compiles ONCE per campaign (compiled_model::compile_count()
// is the proof knob); every cell is a cwc::compiled_model::overlay — the
// dependency index, observable plans, and rate-tape structure are shared,
// only the constant tables differ. On the batched backend the campaign's
// global lane list spans cell boundaries: trajectories of different cells
// share SoA strips and shape-family pools, so the wide kernels vectorize
// across the whole sweep, not per cell.
//
// Determinism: trajectory i of cell c replays a standalone engine on the
// overlaid model with (cfg.seed, trajectory id i), bit for bit, on every
// backend and batch width. Per-cell trajectory ids run 0..N-1 in every
// cell — common random numbers across cells, so cell-to-cell differences
// are parameter effects, not sampling noise. Report reductions fold in
// trajectory order per cut and cut order per cell, so worker count and
// scheduling cannot change a single byte of the report.
#pragma once

#include <cstdint>
#include <functional>

#include "core/session.hpp"
#include "sweep/plan.hpp"
#include "sweep/report.hpp"

namespace cwcsim {

/// Sweep-specific configuration validation, layered on validate(cfg, b):
/// rejects a cell-less plan, an empty or duplicate axis, a duplicate
/// parameter cell and any non-multicore backend, all as typed
/// config_error diagnostics. (Unknown rate names and non-mass-action
/// overlays are model-dependent; run_sweep rejects those as
/// config_error{"sweep.overlay"} when it builds the cell overlays.)
void validate(const sim_config& cfg, const backend& b, const sweep::plan& p);

/// Fluent construction of a sweep campaign. run() validates, compiles the
/// model once, builds the M cell overlays, and executes synchronously —
/// streaming per-cell progress/completion through the callbacks (or a
/// caller-owned event_sink, which also provides cooperative stop).
class sweep_builder {
 public:
  /// The builder keeps a pointer to `m`, so it must outlive every run()
  /// call. A temporary cannot bind.
  sweep_builder& model(const cwc::model& m) {
    model_.tree = &m;
    model_.flat = nullptr;
    model_.compiled.reset();
    return *this;
  }
  /// As model(const cwc::model&): `n` must outlive every run() call.
  sweep_builder& model(const cwc::reaction_network& n) {
    model_.flat = &n;
    model_.tree = nullptr;
    model_.compiled.reset();
    return *this;
  }
  sweep_builder& model(const cwc::model&&) = delete;
  sweep_builder& model(const cwc::reaction_network&&) = delete;
  /// cfg.num_trajectories is N, the per-cell trajectory count.
  sweep_builder& config(sim_config cfg) {
    cfg_ = cfg;
    return *this;
  }
  sweep_builder& backend(cwcsim::backend b) {
    backend_ = std::move(b);
    return *this;
  }
  sweep_builder& plan(sweep::plan p) {
    plan_ = std::move(p);
    return *this;
  }

  /// Per-cell progress: `done` of `total` trajectories of `cell` finished.
  sweep_builder& on_cell_progress(
      std::function<void(std::uint32_t cell, std::uint64_t done,
                         std::uint64_t total)>
          cb) {
    progress_cb_ = std::move(cb);
    return *this;
  }
  /// Cell completion: every trajectory of `cell` finished and its report
  /// reductions are final (safe to read report.cells[cell] after run()).
  sweep_builder& on_cell_done(std::function<void(std::uint32_t cell)> cb) {
    done_cb_ = std::move(cb);
    return *this;
  }
  /// Advanced: route every event (trajectory_done, cell_progress,
  /// cell_done) through a caller-owned sink; its stop_requested() gives
  /// cooperative cancellation (report.stopped == true on a cut run).
  /// Callbacks above still fire alongside a custom sink.
  sweep_builder& sink(event_sink* s) {
    sink_ = s;
    return *this;
  }

  /// Validate, run the whole campaign, and return the report.
  /// Throws config_error on a rejected configuration or plan.
  sweep::report run() const;

 private:
  model_ref model_{};
  sim_config cfg_{};
  cwcsim::backend backend_ = multicore{};
  sweep::plan plan_{};
  std::function<void(std::uint32_t, std::uint64_t, std::uint64_t)>
      progress_cb_;
  std::function<void(std::uint32_t)> done_cb_;
  event_sink* sink_ = nullptr;
};

/// One-shot facades: run `p` over `m` under `cfg` on `b`, blocking.
sweep::report run_sweep(const cwc::model& m, const sim_config& cfg,
                        const sweep::plan& p, const backend& b = multicore{});
sweep::report run_sweep(const cwc::reaction_network& n, const sim_config& cfg,
                        const sweep::plan& p, const backend& b = multicore{});

}  // namespace cwcsim
