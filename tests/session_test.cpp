// Tests for the unified streaming run API (core/session.hpp): builder
// lifetimes, subscriber errors, ordered delivery, cooperative
// cancellation, centralized validation, and the sampling-grid hardening.
// Whether a subscriber's stream equals the report on every backend is
// conformance_test's matrix.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/cwcsim.hpp"
#include "dist/dist.hpp"
#include "models/models.hpp"
#include "simt/simt.hpp"
#include "svc/svc.hpp"
#include "sweep/sweep.hpp"

namespace {

// The builders keep a pointer to the model, so a temporary must not bind:
// `run_builder().model(make_model())...open()` would run a destroyed model.
template <typename Builder, typename Model>
concept binds_model =
    requires(Builder b, Model&& m) { b.model(std::forward<Model>(m)); };
static_assert(binds_model<cwcsim::run_builder, const cwc::model&>);
static_assert(binds_model<cwcsim::run_builder, cwc::reaction_network&>);
static_assert(!binds_model<cwcsim::run_builder, cwc::model>);
static_assert(!binds_model<cwcsim::run_builder, const cwc::reaction_network>);
static_assert(binds_model<cwcsim::sweep_builder, cwc::model&>);
static_assert(!binds_model<cwcsim::sweep_builder, cwc::model>);
static_assert(!binds_model<cwcsim::sweep_builder, cwc::reaction_network>);

cwcsim::sim_config small_config() {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 12;
  cfg.t_end = 12.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 3.0;
  cfg.sim_workers = 2;
  cfg.stat_engines = 2;
  cfg.window_size = 5;
  cfg.window_slide = 5;
  cfg.kmeans_k = 2;
  cfg.seed = 4321;
  return cfg;
}

// A throwing subscriber stops the analysis stage, yet every backend's run
// drains and wait() rethrows the subscriber's error instead of hanging:
// 641 single-cut windows overflow any bounded channel between stages.
TEST(Session, ThrowingWindowSubscriberSurfacesFromWait) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.num_trajectories = 4;
  cfg.t_end = 320.0;
  cfg.window_size = 1;
  cfg.window_slide = 1;
  cfg.kmeans_k = 0;
  for (const cwcsim::backend& b :
       {cwcsim::backend{cwcsim::multicore{}},
        cwcsim::backend{cwcsim::multicore{/*batch_width=*/4}},
        cwcsim::backend{cwcsim::distributed{2, 1}},
        cwcsim::backend{cwcsim::gpu{simt::devices::laptop_gpu(),
                                    /*batch_width=*/4}}}) {
    auto s = cwcsim::run_builder().model(m).config(cfg).backend(b).open();
    s.on_window([](const cwcsim::window_summary&) {
      throw std::runtime_error("subscriber failed");
    });
    EXPECT_THROW((void)s.wait(), std::runtime_error) << b.index();
  }
}

/// Lets every thread through until armed; then only the first thread to
/// ask, which yields the CPU at each pass, so the pool's other threads
/// take lanes even on a loaded machine.
class one_thread_gate {
 public:
  void arm() {
    const std::lock_guard<std::mutex> lk(mu_);
    armed_ = true;
  }
  bool admits() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      if (!armed_) return true;
      if (!owner_) owner_ = std::this_thread::get_id();
      if (*owner_ != std::this_thread::get_id()) return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    return true;
  }

 private:
  std::mutex mu_;
  bool armed_ = false;
  std::optional<std::thread::id> owner_;
};

/// A birth-death model whose custom birth law, once the gate is armed,
/// throws on every thread but the first to evaluate it: the lane pool's
/// other threads throw.
cwc::model law_throwing_off_one_thread(std::shared_ptr<one_thread_gate> g) {
  cwc::model m;
  m.set_initial(cwc::parse_term(m, "10*A"));
  const auto a = m.species().id("A");
  cwc::rule birth("birth", cwc::top_compartment,
                  cwc::rate_law::custom([a, g](const cwc::rate_ctx& ctx) {
                    if (!g->admits())
                      throw std::runtime_error("rate law failed");
                    return 40.0 / (1.0 + static_cast<double>(ctx.local.count(a)) / 20.0);
                  }));
  birth.produce(a);
  m.add_rule(std::move(birth));
  cwc::rule death("death", cwc::top_compartment,
                  cwc::rate_law::mass_action(0.5));
  death.consume(a);
  m.add_rule(std::move(death));
  m.add_observable("A", a);
  return m;
}

// An engine error on a lane-round pool thread is carried to the driving
// thread and out of wait(): the process neither aborts nor hangs.
TEST(Session, ThrowingRateLawOnPoolThreadsSurfacesFromWait) {
  auto cfg = small_config();
  cfg.num_trajectories = 64;
  cfg.sim_workers = 3;
  for (const cwcsim::backend& b :
       {cwcsim::backend{cwcsim::multicore{}},
        cwcsim::backend{cwcsim::gpu{simt::devices::tesla_k40()}}}) {
    SCOPED_TRACE(b.index());
    const auto gate = std::make_shared<one_thread_gate>();
    const cwc::model m = law_throwing_off_one_thread(gate);
    auto s = cwcsim::run_builder()
                 .model(m)
                 .config(cfg)
                 .backend(b)
                 .open();
    gate->arm();  // after the gpu's cost calibration, which open() ran
    EXPECT_THROW((void)s.wait(), std::runtime_error);
  }
}

TEST(Session, CallbacksArriveInTimeOrderWithProgress) {
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = small_config();

  std::vector<std::uint64_t> first_samples;
  std::uint64_t done_events = 0;
  std::uint64_t last_progress_done = 0;
  std::uint64_t last_progress_windows = 0;

  auto s = cwcsim::run_builder().model(m).config(cfg).open();
  s.on_window([&](const cwcsim::window_summary& w) {
      first_samples.push_back(w.first_sample);
    })
      .on_trajectory_done([&](const cwcsim::task_done& d) {
        EXPECT_LT(d.trajectory_id, cfg.num_trajectories);
        ++done_events;
      })
      .on_progress([&](const cwcsim::progress& p) {
        EXPECT_EQ(p.trajectories_total, cfg.num_trajectories);
        EXPECT_GE(p.trajectories_done, last_progress_done);
        EXPECT_GE(p.windows_emitted, last_progress_windows);
        last_progress_done = p.trajectories_done;
        last_progress_windows = p.windows_emitted;
      });
  const auto report = s.wait();

  // Windows arrive in strict time order, spaced by the slide.
  ASSERT_EQ(first_samples.size(), report.result.windows.size());
  for (std::size_t i = 0; i + 1 < first_samples.size(); ++i)
    EXPECT_EQ(first_samples[i + 1] - first_samples[i], cfg.window_slide);

  EXPECT_EQ(done_events, cfg.num_trajectories);
  EXPECT_EQ(last_progress_done, cfg.num_trajectories);
  EXPECT_EQ(last_progress_windows, report.result.windows.size());
}

class session_stop_test : public ::testing::TestWithParam<cwcsim::backend> {};

TEST_P(session_stop_test, RequestStopMidRunYieldsPartialReport) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.t_end = 200.0;  // long campaign: ~100 windows if left alone
  cfg.window_size = 4;
  cfg.window_slide = 4;
  cfg.kmeans_k = 0;

  auto s = cwcsim::run_builder()
               .model(m)
               .config(cfg)
               .backend(GetParam())
               .open();
  std::uint64_t windows_seen = 0;
  s.on_window([&](const cwcsim::window_summary&) {
    if (++windows_seen == 2) s.request_stop();
  });
  const auto report = s.wait();

  EXPECT_TRUE(report.stopped);
  EXPECT_GE(windows_seen, 2u);
  // Far fewer windows than the full campaign, and incomplete trajectories.
  EXPECT_LT(report.result.windows.size(),
            cfg.num_samples() / cfg.window_slide);
  EXPECT_LT(report.result.completions.size(), cfg.num_trajectories);
  // The partial stream is still ordered and self-consistent.
  for (std::size_t i = 0; i + 1 < report.result.windows.size(); ++i)
    EXPECT_EQ(report.result.windows[i + 1].first_sample -
                  report.result.windows[i].first_sample,
              cfg.window_slide);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, session_stop_test,
    ::testing::Values(
        cwcsim::backend{cwcsim::multicore{}},
        cwcsim::backend{cwcsim::distributed{2, 2}},
        cwcsim::backend{cwcsim::gpu{simt::devices::laptop_gpu()}},
        // Batched deployments: stop must be honoured at the quantum
        // (kernel) boundary, leaving a partial but ordered stream.
        cwcsim::backend{cwcsim::multicore{/*batch_width=*/4}},
        cwcsim::backend{cwcsim::gpu{simt::devices::laptop_gpu(),
                                    /*batch_width=*/4}}));

TEST(Session, StopBeforeStartDrainsImmediately) {
  const auto m = models::make_neurospora_cwc({});
  auto s = cwcsim::run_builder().model(m).config(small_config()).open();
  s.request_stop();
  const auto report = s.wait();
  EXPECT_TRUE(report.stopped);
  EXPECT_TRUE(report.result.windows.empty());
  EXPECT_TRUE(report.result.completions.empty());
}

TEST(Session, RequestStopIsIdempotentAndSafeAfterWait) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.num_trajectories = 2;
  cfg.t_end = 2.0;
  auto s = cwcsim::run_builder().model(m).config(cfg).open();

  // Idempotent before start...
  s.request_stop();
  s.request_stop();
  EXPECT_FALSE(s.started());

  // ...and still callable after wait() returned (a subscriber or watchdog
  // firing late must not crash the program).
  const auto report = s.wait();
  EXPECT_TRUE(report.stopped);
  s.request_stop();
  s.request_stop();

  // A moved-from handle degrades to a no-op, not a null dereference.
  auto s2 = std::move(s);
  s.request_stop();  // NOLINT(bugprone-use-after-move): the documented contract
  EXPECT_FALSE(s.started());
  s2.request_stop();
}

TEST(Session, SubscriptionAfterStartIsRejected) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.num_trajectories = 2;
  cfg.t_end = 2.0;
  auto s = cwcsim::run_builder().model(m).config(cfg).open();
  s.start();
  EXPECT_THROW(s.on_window([](const cwcsim::window_summary&) {}),
               util::precondition_error);
  (void)s.wait();
}

// ------------------------- centralized validation -------------------------

TEST(Validate, RejectsDegenerateKnobsWithTypedDiagnostics) {
  const auto base = small_config();

  auto field_of = [](cwcsim::sim_config cfg) -> std::string {
    try {
      cwcsim::validate(cfg);
    } catch (const cwcsim::config_error& e) {
      return e.field();
    }
    return "";
  };

  auto cfg = base;
  cfg.sim_workers = 0;
  EXPECT_EQ(field_of(cfg), "sim_workers");

  cfg = base;
  cfg.window_slide = 0;
  EXPECT_EQ(field_of(cfg), "window_slide");

  cfg = base;
  cfg.window_size = 4;
  cfg.window_slide = 5;  // would skip cuts
  EXPECT_EQ(field_of(cfg), "window_slide");

  cfg = base;
  cfg.sample_period = 0.0;
  EXPECT_EQ(field_of(cfg), "sample_period");

  cfg = base;
  cfg.num_trajectories = 0;
  EXPECT_EQ(field_of(cfg), "num_trajectories");

  // Backend-specific checks flow through the same entry point.
  EXPECT_THROW(cwcsim::validate(base, cwcsim::distributed{0, 2}),
               cwcsim::config_error);
  EXPECT_THROW(cwcsim::validate(base, cwcsim::distributed{2, 0}),
               cwcsim::config_error);

  // config_error stays catchable as the historical precondition_error.
  EXPECT_THROW(cwcsim::validate(base, cwcsim::distributed{0, 2}),
               util::precondition_error);
}

// Backend knobs that would fail only once the run has started (a device
// with no warp slots, a cost model with a negative or non-finite factor)
// get one typed error per field.
TEST(Validate, RejectsServiceAndDeviceKnobsThatWouldFailMidRun) {
  const auto base = small_config();
  const auto field_of = [&](const cwcsim::backend& b) -> std::string {
    try {
      cwcsim::validate(base, b);
    } catch (const cwcsim::config_error& e) {
      return e.field();
    }
    return "";
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  svc::run_server server;
  EXPECT_EQ(field_of(cwcsim::service{&server}), "");

  cwcsim::gpu g{simt::devices::tesla_k40()};
  g.device.concurrent_warps = 0;
  EXPECT_EQ(field_of(g), "gpu.device.concurrent_warps");
  for (const double v : {-1.0, kInf, kNaN}) {
    g = cwcsim::gpu{simt::devices::tesla_k40()};
    g.device.step_slowdown = v;
    EXPECT_EQ(field_of(g), "gpu.device.step_slowdown");
    g = cwcsim::gpu{simt::devices::tesla_k40()};
    g.device.kernel_launch_s = v;
    EXPECT_EQ(field_of(g), "gpu.device.kernel_launch_s");
    g = cwcsim::gpu{simt::devices::tesla_k40()};
    g.device.unified_mem_bytes_s = v;
    EXPECT_EQ(field_of(g), "gpu.device.unified_mem_bytes_s");
  }
  EXPECT_EQ(field_of(cwcsim::gpu{simt::devices::tesla_k40()}), "");
}

// A horizon that is not a finite number, or a grid with more points than
// num_sample_points can count, is rejected before any engine samples it.
TEST(Validate, RejectsAHorizonOrGridTheSamplerCannotIndex) {
  auto field_of = [](cwcsim::sim_config cfg) -> std::string {
    try {
      cwcsim::validate(cfg);
    } catch (const cwcsim::config_error& e) {
      return e.field();
    }
    return "";
  };

  auto cfg = small_config();
  cfg.t_end = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(field_of(cfg), "t_end");
  cfg.t_end = std::numeric_limits<double>::infinity();
  EXPECT_EQ(field_of(cfg), "t_end");

  cfg = small_config();
  cfg.t_end = 1e6;
  cfg.sample_period = 1e-300;
  EXPECT_EQ(field_of(cfg), "sample_period");

  cfg.sample_period = 1e-9;  // 10^15 points: large, but indexable
  EXPECT_EQ(field_of(cfg), "");

  // A quantum below the gap from t_end to the next double cannot move the
  // clock there: t_end 4 over 1e-300, and t_end 1e17 (gap 16) over 1.
  cfg = small_config();
  cfg.t_end = 4.0;
  cfg.quantum = 1e-300;
  EXPECT_EQ(field_of(cfg), "quantum");
  cfg.t_end = 1e17;
  cfg.quantum = 1.0;
  EXPECT_EQ(field_of(cfg), "quantum");
  cfg.quantum = 16.0;  // the gap itself moves every clock value below 1e17
  EXPECT_EQ(field_of(cfg), "");
  cfg.quantum = std::numeric_limits<double>::infinity();
  EXPECT_EQ(field_of(cfg), "");
  cfg.t_end = 4.0;
  cfg.quantum = 4.0;  // one quantum reaches t_end
  EXPECT_EQ(field_of(cfg), "");
}

TEST(Validate, BuilderRejectsBeforeLaunch) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.window_slide = 0;
  EXPECT_THROW(cwcsim::run_builder().model(m).config(cfg).open(),
               cwcsim::config_error);
  EXPECT_THROW(cwcsim::run_builder().config(small_config()).open(),
               cwcsim::config_error);  // no model
}

// --------------------------- sampling-grid hardening ----------------------

TEST(Config, NumSamplesSurvivesFloatingPointTruncation) {
  cwcsim::sim_config cfg;
  cfg.t_end = 30.0;
  cfg.sample_period = 0.1;  // 30 / 0.1 lands at 299.999… in binary
  EXPECT_EQ(cfg.num_samples(), 301u);

  cfg.sample_period = 0.5;
  EXPECT_EQ(cfg.num_samples(), 61u);

  cfg.t_end = 1.9;  // genuinely off-grid horizon: last sample at 1.5
  EXPECT_EQ(cfg.num_samples(), 4u);
}

TEST(Config, EnginesEmitExactlyNumSamplesOnAwkwardGrids) {
  // End-to-end agreement between sim_config::num_samples() and what the
  // engines actually emit on a grid where naive truncation loses a point.
  const auto net = models::make_birth_death({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 4;
  cfg.t_end = 3.0;
  cfg.sample_period = 0.1;
  cfg.quantum = 1.0;
  cfg.sim_workers = 2;
  cfg.window_size = 8;
  cfg.window_slide = 8;
  cfg.kmeans_k = 0;
  EXPECT_EQ(cfg.num_samples(), 31u);
  const auto res = cwcsim::run(net, cfg).result;
  EXPECT_EQ(res.all_cuts().size(), cfg.num_samples());
}

}  // namespace
