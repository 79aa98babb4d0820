// The unified streaming run API — one facade over every deployment.
//
//   auto s = cwcsim::run_builder()
//                .model(m)
//                .config(cfg)
//                .backend(cwcsim::distributed{4, 2})
//                .open();                       // validated, not yet running
//   s.on_window([](const cwcsim::window_summary& w) { /* stream it */ });
//   auto report = s.wait();                     // starts, streams, joins
//
// Windows reach on_window subscribers while the simulation is still
// running — the paper's on-line analysis surface — and the same ordered
// stream is collected into report.result.windows, bit-exact across every
// backend for the same (model, sim_config). request_stop() cancels
// cooperatively: the run drains at the next scheduling boundary and wait()
// returns a partial report with report.stopped == true.
//
// This is the only run API. For the one-shot case there is
// cwcsim::run(model, cfg, backend); cwcsim::run(model, cfg).result is the
// whole batch result of the default multicore backend.
#pragma once

#include <functional>
#include <memory>

#include "core/backend.hpp"

namespace cwcsim {

/// A launched (or launchable) run. Move-only handle; the backend executes
/// on an internal thread so subscribers receive events while wait()'s
/// caller blocks. Subscriptions must be registered before start().
class session {
 public:
  session(session&&) noexcept;
  session& operator=(session&&) noexcept;
  session(const session&) = delete;
  session& operator=(const session&) = delete;

  /// Joins the run (requesting stop first) if still in flight. A pipeline
  /// error from a started-but-never-wait()ed run is discarded here — call
  /// wait() to observe failures.
  ~session();

  /// Subscribe to the ordered window-summary stream. Delivery is
  /// serialized; the callback runs on a pipeline thread.
  session& on_window(std::function<void(const window_summary&)> cb);

  /// Subscribe to per-trajectory completion notices.
  session& on_trajectory_done(std::function<void(const task_done&)> cb);

  /// Subscribe to progress snapshots (after every completion and window).
  session& on_progress(std::function<void(const progress&)> cb);

  /// Launch the backend. Idempotent once; throws if already started.
  void start();

  /// Cooperative cancellation: the backend stops scheduling new quanta and
  /// drains. Safe from any thread, including subscribers. Idempotent, and
  /// a no-op when the run already finished (even after wait()) or on a
  /// moved-from handle — callers never need to guard a stop request.
  void request_stop() noexcept;

  bool started() const noexcept;

  /// Start if necessary, block until the run finishes, and return the
  /// unified report (rethrows the first pipeline exception). Call once.
  run_report wait();

 private:
  friend class run_builder;
  struct impl;
  explicit session(std::unique_ptr<impl> p);
  std::unique_ptr<impl> p_;
};

/// Fluent construction of a session: model + sim_config + backend, with
/// up-front validation (typed config_error diagnostics) at open().
class run_builder {
 public:
  /// The builder, every session it opens and the compiled artifact keep a
  /// pointer to `m`, so it must outlive them: until wait() returns or the
  /// session is destroyed. A temporary cannot bind.
  run_builder& model(const cwc::model& m) {
    model_.tree = &m;
    model_.flat = nullptr;
    model_.compiled.reset();
    return *this;
  }
  /// As model(const cwc::model&): `n` must outlive the sessions.
  run_builder& model(const cwc::reaction_network& n) {
    model_.flat = &n;
    model_.tree = nullptr;
    model_.compiled.reset();
    return *this;
  }
  run_builder& model(const cwc::model&&) = delete;
  run_builder& model(const cwc::reaction_network&&) = delete;
  run_builder& config(sim_config cfg) {
    cfg_ = cfg;
    return *this;
  }
  run_builder& backend(cwcsim::backend b) {
    backend_ = std::move(b);
    return *this;
  }

  /// Validate everything and yield a ready-to-start session.
  /// Throws config_error on a rejected configuration.
  session open() const;

 private:
  model_ref model_{};
  sim_config cfg_{};
  cwcsim::backend backend_ = multicore{};
};

/// The one-shot facade: run `m` under `cfg` on `b`, blocking to completion.
/// Equivalent to run_builder().model(m).config(cfg).backend(b).open().wait().
run_report run(const cwc::model& m, const sim_config& cfg,
               const backend& b = multicore{});
run_report run(const cwc::reaction_network& n, const sim_config& cfg,
               const backend& b = multicore{});

}  // namespace cwcsim
