// Timed runs: tracing off, only the public API (run_builder/session,
// sweep_builder, svc::run_server through the service backend), repeated in
// rounds until the run length is used, and reported as medians over rounds.
// Every campaign, cell and session is checked after its timing stops:
// completions equal N, and its output digest equals the single-threaded
// replay's. Each timing is printed next to the exact work it covered.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>

#include "measure.hpp"
#include "models/models.hpp"
#include "replay.hpp"
#include "svc_load.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Rounds (campaigns) a timed run makes at least, so every metric is a
/// median of several measurements even on a slow machine.
constexpr std::size_t kMinRounds = 3;
/// Set-up samples taken before every round, so a transient slowdown of
/// the machine shifts only some of them: the median needs them spread out.
constexpr std::size_t kSetupsPerRound = 4;
/// Set-up samples of the svc workload, half before and half after its one
/// long closed loop.
constexpr std::size_t kSvcSetupSamples = 20;
/// Sweep set-ups timed together in one sample: one takes microseconds,
/// too short to time alone.
constexpr std::size_t kSweepSetupsPerSample = 1000;
/// Simulation seed of the ensemble set-up samples.
constexpr std::uint64_t kSetupSeed = 0xC0FFEE;
/// Measurement groups of the svc closed loop: its sessions, in completion
/// order, split into this many equal groups.
constexpr std::size_t kSlices = 5;

/// True while another round of about `last` seconds still fits.
bool another_round(std::size_t rounds, clock::time_point start, double last,
                   double seconds) {
  return rounds < kMinRounds || seconds_since(start) + last <= seconds;
}

void sample_setup(std::vector<double>& samples, std::size_t n,
                  const std::function<double()>& one) {
  for (std::size_t i = 0; i < n; ++i) samples.push_back(one());
}

void print_digest(const workload& w, const char* what, std::uint64_t d) {
  std::printf("digest %s %s: %016" PRIx64 "\n", w.name.c_str(), what, d);
}

std::uint64_t total_steps(const std::vector<cwcsim::task_done>& done) {
  std::uint64_t s = 0;
  for (const auto& d : done) s += d.steps;
  return s;
}

/// `first_share`: how far into a run its first result streams out, as a
/// share of the run's wall time. The time itself is that share times the
/// wall time, which traj_per_s already gates; the share isolates streaming
/// behaviour from machine-wide slowdowns (CPU steal), which stretch both.
void common_metrics(run_result& r, double traj_per_s, double first_share,
                    double completion_s, double rss_mb, double setup_s) {
  r.metric("traj_per_s", traj_per_s, "1/s");
  r.metric("first_result_share", first_share, "ratio");
  r.metric("completion_p50_s", completion_s, "s");
  r.metric("peak_rss_mb", rss_mb, "MB");
  r.metric("setup_s", setup_s, "s");
}

// --------------------------------------------------------------- ensembles

/// The set-up users pay once per process: the model, and one open() per
/// backend (compile; the gpu backend also calibrates). Sampled under one
/// fixed simulation seed: the calibration's k-means cost depends on the
/// seed, which would make set-up time vary with the workload's inputs.
double ensemble_setup(const workload& w) {
  cwcsim::sim_config cfg = w.ensemble.cfg;
  cfg.seed = kSetupSeed;
  const auto t0 = clock::now();
  const cwc::model model = build_model(w.ensemble.kind);
  std::vector<cwcsim::session> sessions;
  for (const auto& b : w.backends)
    sessions.push_back(
        cwcsim::run_builder().model(model).config(cfg).backend(b.backend).open());
  return seconds_since(t0);
}

run_result timed_ensemble(const workload& w, double seconds) {
  const cwcsim::sim_config& cfg = w.ensemble.cfg;
  const std::uint64_t n = cfg.num_trajectories;
  const std::size_t nb = w.backends.size();
  run_result r;
  std::vector<double> setup, tput, first, completion, rss;
  std::vector<std::vector<double>> b_tput(nb), b_first(nb);
  std::vector<std::uint64_t> digests, steps(nb, 0);

  const cwc::model model = build_model(w.ensemble.kind);
  const auto start = clock::now();
  double last = 0.0;
  for (std::size_t round = 0; another_round(round, start, last, seconds); ++round) {
    const auto round_start = clock::now();
    sample_setup(setup, kSetupsPerRound, [&] { return ensemble_setup(w); });
    reset_peak_rss();
    bool round_ok = true;
    double wall_sum = 0.0, first_sum = 0.0, completion_sum = 0.0;
    for (std::size_t b = 0; b < nb; ++b) {
      const std::string what = w.backends[b].name + " round " + std::to_string(round);
      auto s = cwcsim::run_builder()
                   .model(model)
                   .config(cfg)
                   .backend(w.backends[b].backend)
                   .open();
      clock::time_point t0;
      double first_s = -1.0;
      std::vector<double> done;
      done.reserve(n);
      // Delivery is serialized and the pipeline threads are joined before
      // wait() returns, so these plain captures are race-free.
      s.on_window([&](const cwcsim::window_summary&) {
        if (first_s < 0.0) first_s = seconds_since(t0);
      });
      s.on_trajectory_done(
          [&](const cwcsim::task_done&) { done.push_back(seconds_since(t0)); });
      cwcsim::run_report rep;
      t0 = clock::now();
      try {
        rep = s.wait();
      } catch (const std::exception& e) {
        r.op(false, what + ": " + e.what());
        round_ok = false;
        continue;
      }
      const double wall = seconds_since(t0);
      const bool complete = !rep.stopped && rep.result.completions.size() == n &&
                            done.size() == n && first_s >= 0.0;
      r.op(complete, what + ": incomplete campaign");
      round_ok = round_ok && complete;
      if (!complete) continue;
      digests.push_back(window_digest(rep.result.windows));
      steps[b] = total_steps(rep.result.completions);
      wall_sum += wall;
      first_sum += first_s;
      completion_sum += median(done);
      b_tput[b].push_back(static_cast<double>(n) / wall);
      b_first[b].push_back(first_s);
    }
    if (round_ok) {
      tput.push_back(static_cast<double>(nb * n) / wall_sum);
      first.push_back(first_sum / wall_sum);
      completion.push_back(completion_sum);
      rss.push_back(peak_rss_mb());
    }
    last = seconds_since(round_start);
  }

  const std::uint64_t ref = reference_digest(model, cfg);
  print_digest(w, "replay", ref);
  for (const std::uint64_t d : digests)
    if (d != ref) r.op(false, "campaign digest differs from the replay");
  for (std::size_t b = 0; b < nb; ++b) {
    if (b_tput[b].empty()) continue;
    const std::string& name = w.backends[b].name;
    std::printf("%s; per campaign %" PRIu64 " trajectories, %" PRIu64 " SSA steps\n",
                describe("traj_per_s." + name, summarize(b_tput[b]), "1/s").c_str(), n,
                steps[b]);
    std::printf("%s\n", describe("first_window_s." + name, summarize(b_first[b]), "s").c_str());
  }
  if (tput.empty()) return r;
  common_metrics(r, median(tput), median(first), median(completion), median(rss),
                 median(setup));
  return r;
}

// ------------------------------------------------------------------- sweep

/// The sweep's set-up — model, plan, one compile and every cell overlay —
/// in seconds per set-up, averaged over kSweepSetupsPerSample.
double sweep_setup(const sweep_spec& s) {
  const auto t0 = clock::now();
  for (std::size_t i = 0; i < kSweepSetupsPerSample; ++i) {
    const auto net = models::make_schlogl({});
    const auto plan = s.plan();
    const auto base = cwc::compiled_model::compile(net);
    std::size_t built = 0;
    for (const auto& cell : plan.cells())
      built += cwc::compiled_model::overlay(base, cell.overrides) != nullptr;
    util::ensures(built == plan.num_cells(), "sweep overlays");
  }
  return seconds_since(t0) / static_cast<double>(kSweepSetupsPerSample);
}

run_result timed_sweep(const workload& w, double seconds) {
  const sweep_spec& s = w.sweep;
  const std::uint64_t n = s.cfg.num_trajectories;
  run_result r;
  std::vector<double> setup, tput, first, completion, rss;

  const auto net = models::make_schlogl({});
  const auto plan = s.plan();
  const std::size_t m = plan.num_cells();
  std::vector<std::uint64_t> digests;
  std::uint64_t steps = 0;
  const auto start = clock::now();
  double last = 0.0;
  for (std::size_t round = 0; another_round(round, start, last, seconds); ++round) {
    const std::string what = "sweep round " + std::to_string(round);
    const auto round_start = clock::now();
    sample_setup(setup, kSetupsPerRound, [&] { return sweep_setup(s); });
    reset_peak_rss();
    std::vector<double> cell_done;
    cell_done.reserve(m);
    const auto t0 = clock::now();
    cwcsim::sweep::report rep;
    try {
      rep = cwcsim::sweep_builder()
                .model(net)
                .config(s.cfg)
                .backend(cwcsim::multicore{})
                .plan(plan)
                .on_cell_done([&](std::uint32_t) {
                  cell_done.push_back(seconds_since(t0));
                })
                .run();
    } catch (const std::exception& e) {
      r.op(false, what + ": " + e.what());
      last = seconds_since(round_start);
      continue;
    }
    const double wall = seconds_since(t0);
    last = seconds_since(round_start);
    bool complete = !rep.stopped && rep.cells.size() == m && cell_done.size() == m;
    steps = 0;
    for (const auto& c : rep.cells) {
      const bool ok = c.trajectories == n;
      r.op(ok, what + ": cell incomplete");
      complete = complete && ok;
      steps += c.steps;
    }
    if (!complete) continue;
    digests.push_back(sweep_digest(rep));
    tput.push_back(static_cast<double>(m * n) / wall);
    first.push_back(*std::min_element(cell_done.begin(), cell_done.end()) / wall);
    completion.push_back(median(cell_done));
    rss.push_back(peak_rss_mb());
  }

  replay_counts counts;
  const std::uint64_t ref = replay_sweep(s, replay_options{}, counts);
  print_digest(w, "replay", ref);
  for (const std::uint64_t d : digests)
    if (d != ref) r.op(false, "sweep digest differs from the replay");
  std::printf("%s; per campaign %zu cells x %" PRIu64 " trajectories, %" PRIu64
              " SSA steps\n",
              describe("traj_per_s.sweep", summarize(tput), "1/s").c_str(), m, n, steps);
  if (tput.empty()) return r;
  common_metrics(r, median(tput), median(first), median(completion), median(rss),
                 median(setup));
  return r;
}

// --------------------------------------------------------------------- svc

run_result timed_svc(const workload& w, double seconds) {
  run_result r;
  std::vector<double> setup;
  const auto server_setup = [&] {
    const auto t0 = clock::now();
    const auto warm = start_server(w);
    return seconds_since(t0);
  };
  sample_setup(setup, kSvcSetupSamples / 2, server_setup);
  const auto server = start_server(w);

  clock::time_point start;
  std::vector<double> rss;
  const auto sessions = svc_closed_loop(*server, w, seconds,
                                        std::numeric_limits<std::size_t>::max(), start,
                                        nullptr, kSlices, &rss);
  const svc::server_stats st = server->stats();
  sample_setup(setup, kSvcSetupSamples / 2, server_setup);

  std::vector<double> latency, first, first_share;
  std::vector<std::pair<clock::time_point, double>> completed;  // (done, N)
  for (const auto& s : sessions) {
    latency.push_back(s.latency);
    first.push_back(s.first);
    first_share.push_back(s.ok ? s.first / s.latency
                               : std::numeric_limits<double>::infinity());
    if (s.ok)
      completed.emplace_back(
          s.done, static_cast<double>(w.tenants[s.tenant].cfg.num_trajectories));
  }
  // Throughput of each group of consecutive completions, over the time
  // since the previous group's last completion.
  std::sort(completed.begin(), completed.end());
  std::vector<double> slice_tput;
  clock::time_point from = start;
  for (std::size_t k = 0; k < kSlices; ++k) {
    const std::size_t a = completed.size() * k / kSlices;
    const std::size_t b = completed.size() * (k + 1) / kSlices;
    if (a == b) continue;
    double traj = 0.0;
    for (std::size_t i = a; i < b; ++i) traj += completed[i].second;
    slice_tput.push_back(traj / seconds_between(from, completed[b - 1].first));
    from = completed[b - 1].first;
  }
  check_svc(w, sessions, st, r);
  std::printf("%s; %zu sessions, %" PRIu64 " quanta executed\n",
              describe("session_s.svc", summarize(latency), "s").c_str(),
              sessions.size(), st.quanta_executed);
  std::printf("%s\n", describe("first_window_s.svc", summarize(first), "s").c_str());
  if (slice_tput.empty() || rss.empty()) return r;
  common_metrics(r, median(slice_tput), median(first_share), median(latency),
                 median(rss), median(setup));
  return r;
}

}  // namespace

run_result run_timed(const workload& w, double seconds) {
  switch (w.type) {
    case workload::kind::ensemble:
      return timed_ensemble(w, seconds);
    case workload::kind::sweep:
      return timed_sweep(w, seconds);
    case workload::kind::svc:
      return timed_svc(w, seconds);
  }
  return {};
}

}  // namespace perfbench
