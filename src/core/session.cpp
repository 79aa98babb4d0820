// The session facade: backend-variant dispatch, event delivery, and the
// worker thread that lets subscribers consume windows while the run is in
// flight. Compiled into the cwcsim umbrella library — the one layer that
// sits above every backend — so detail::make_driver can reach the
// distributed and GPU runtimes without inverting the module graph.
#include "core/session.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "util/check.hpp"

namespace cwcsim {

namespace detail {

std::unique_ptr<backend_driver> make_driver(const model_ref& model,
                                            const sim_config& cfg,
                                            const backend& b) {
  struct dispatch {
    const model_ref& model;
    const sim_config& cfg;
    std::unique_ptr<backend_driver> operator()(const multicore& m) const {
      return make_multicore_driver(model, cfg, m);
    }
    std::unique_ptr<backend_driver> operator()(const distributed& d) const {
      return make_distributed_driver(model, cfg, d);
    }
    std::unique_ptr<backend_driver> operator()(const gpu& g) const {
      return make_gpu_driver(model, cfg, g);
    }
    std::unique_ptr<backend_driver> operator()(const service& s) const {
      return make_service_driver(model, cfg, s);
    }
  };
  return std::visit(dispatch{model, cfg}, b);
}

}  // namespace detail

// ------------------------------------------------------------------ session

struct session::impl final : event_sink {
  sim_config cfg{};
  std::unique_ptr<backend_driver> driver;

  std::function<void(const window_summary&)> window_cb;
  std::function<void(const task_done&)> done_cb;
  std::function<void(const progress&)> progress_cb;

  std::mutex deliver_mu;                ///< serializes subscriber delivery
  std::vector<window_summary> windows;  ///< the collected ordered stream
  std::uint64_t completions_seen = 0;
  std::uint64_t reissued_seen = 0;  ///< elastic re-issue events observed

  std::atomic<bool> stop{false};
  std::atomic<bool> launched{false};
  bool waited = false;

  std::thread worker;
  run_report report;
  std::exception_ptr error;

  ~impl() override {
    if (worker.joinable()) {
      stop.store(true, std::memory_order_relaxed);
      worker.join();
    }
  }

  // ---- event_sink (called from backend pipeline threads) ---------------
  void window(window_summary&& w) override {
    const std::lock_guard<std::mutex> lock(deliver_mu);
    // Collect before delivering: a throwing subscriber must not lose the
    // window from the report stream it already observed.
    windows.push_back(std::move(w));
    if (window_cb) window_cb(windows.back());
    notify_progress();
  }

  void trajectory_done(const task_done& d) override {
    const std::lock_guard<std::mutex> lock(deliver_mu);
    ++completions_seen;
    if (done_cb) done_cb(d);
    notify_progress();
  }

  bool stop_requested() const noexcept override {
    return stop.load(std::memory_order_relaxed);
  }

  void quantum_reissued(std::uint64_t /*trajectory*/,
                        std::uint64_t /*from_quantum*/) override {
    const std::lock_guard<std::mutex> lock(deliver_mu);
    ++reissued_seen;
    notify_progress();
  }

  void notify_progress() {
    if (!progress_cb) return;
    progress p;
    p.trajectories_done = completions_seen;
    p.trajectories_total = cfg.num_trajectories;
    p.windows_emitted = windows.size();
    p.quanta_reissued = reissued_seen;
    progress_cb(p);
  }

  void launch() {
    util::expects(!launched.exchange(true), "session already started");
    worker = std::thread([this] {
      try {
        driver->run(*this, report);
      } catch (...) {
        error = std::current_exception();
      }
    });
  }
};

session::session(std::unique_ptr<impl> p) : p_(std::move(p)) {}
session::session(session&&) noexcept = default;
session& session::operator=(session&&) noexcept = default;
session::~session() = default;

session& session::on_window(std::function<void(const window_summary&)> cb) {
  util::expects(!p_->launched.load(), "subscribe before start()");
  p_->window_cb = std::move(cb);
  return *this;
}

session& session::on_trajectory_done(std::function<void(const task_done&)> cb) {
  util::expects(!p_->launched.load(), "subscribe before start()");
  p_->done_cb = std::move(cb);
  return *this;
}

session& session::on_progress(std::function<void(const progress&)> cb) {
  util::expects(!p_->launched.load(), "subscribe before start()");
  p_->progress_cb = std::move(cb);
  return *this;
}

void session::start() { p_->launch(); }

void session::request_stop() noexcept {
  // Idempotent and total: callable any number of times, from any thread,
  // before start(), during the run, after wait(), and on a moved-from
  // handle (where it is a no-op instead of a null dereference). The
  // stored flag is just a relaxed atomic the backend polls, so a stop
  // requested after completion is harmless.
  if (p_ == nullptr) return;
  p_->stop.store(true, std::memory_order_relaxed);
}

bool session::started() const noexcept {
  return p_ != nullptr && p_->launched.load();
}

run_report session::wait() {
  util::expects(!p_->waited, "session::wait() may be called once");
  p_->waited = true;
  if (!p_->launched.load()) p_->launch();
  p_->worker.join();
  if (p_->error) std::rethrow_exception(p_->error);

  run_report report = std::move(p_->report);
  report.backend = p_->driver->name();
  report.result.windows = std::move(p_->windows);
  report.stopped =
      p_->stop.load(std::memory_order_relaxed) &&
      report.result.completions.size() < p_->cfg.num_trajectories;
  return report;
}

// -------------------------------------------------------------- run_builder

session run_builder::open() const {
  if (model_.tree == nullptr && model_.flat == nullptr)
    throw config_error("model", "run_builder requires a model");
  validate(cfg_, backend_);

  // Compile the model once, before any driver spins up: every engine the
  // chosen backend constructs shares this one immutable artifact.
  model_ref compiled = model_;
  compiled.compile();

  auto p = std::make_unique<session::impl>();
  p->cfg = cfg_;
  p->driver = detail::make_driver(compiled, cfg_, backend_);
  return session(std::move(p));
}

// ---------------------------------------------------------------- run facade

run_report run(const cwc::model& m, const sim_config& cfg, const backend& b) {
  return run_builder().model(m).config(cfg).backend(b).open().wait();
}

run_report run(const cwc::reaction_network& n, const sim_config& cfg,
               const backend& b) {
  return run_builder().model(n).config(cfg).backend(b).open().wait();
}

}  // namespace cwcsim
