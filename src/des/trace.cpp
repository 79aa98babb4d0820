#include "des/trace.hpp"

#include <algorithm>

#include "core/quantum.hpp"
#include "stats/stats.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace des {

std::uint64_t workload::total_steps() const noexcept {
  std::uint64_t s = 0;
  for (const auto& t : quanta)
    for (const auto& q : t) s += q.ssa_steps;
  return s;
}

std::uint64_t workload::total_quanta() const noexcept {
  std::uint64_t n = 0;
  for (const auto& t : quanta) n += t.size();
  return n;
}

std::uint64_t workload::max_quanta_per_trajectory() const noexcept {
  std::uint64_t m = 0;
  for (const auto& t : quanta) m = std::max<std::uint64_t>(m, t.size());
  return m;
}

workload workload::slice(std::uint64_t n) const {
  util::expects(n > 0 && n <= num_trajectories, "slice size out of range");
  workload out = *this;
  out.num_trajectories = n;
  out.quanta.assign(quanta.begin(), quanta.begin() + static_cast<long>(n));
  return out;
}

workload workload::rebin(std::uint64_t factor) const {
  util::expects(factor > 0, "rebin factor must be positive");
  workload out = *this;
  out.quantum = quantum * static_cast<double>(factor);
  for (auto& traj : out.quanta) {
    std::vector<cwcsim::quantum_record> merged;
    merged.reserve((traj.size() + factor - 1) / factor);
    for (std::size_t i = 0; i < traj.size(); i += factor) {
      cwcsim::quantum_record q;
      for (std::size_t j = i; j < std::min(traj.size(), i + factor); ++j) {
        q.ssa_steps += traj[j].ssa_steps;
        q.samples += traj[j].samples;
      }
      merged.push_back(q);
    }
    traj = std::move(merged);
  }
  return out;
}

workload capture_workload(const cwcsim::model_ref& model,
                          const cwcsim::sim_config& cfg) {
  // Compile once for the whole capture: the workload description is
  // derived from the same shared artifact the real backends execute.
  cwcsim::model_ref mr = model;
  mr.compile();

  workload w;
  w.num_trajectories = cfg.num_trajectories;
  w.num_samples = cfg.num_samples();
  w.observables = mr.num_observables();
  w.t_end = cfg.t_end;
  w.sample_period = cfg.sample_period;
  w.quantum = cfg.quantum;
  w.quanta.resize(cfg.num_trajectories);

  // The same per-quantum rule as every backend worker (core/quantum.hpp);
  // the loop guard keeps t_end = 0 at zero quanta.
  for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i) {
    auto eng = mr.make_engine(cfg.seed, i);
    auto& qs = w.quanta[i];
    while (eng.time() < cfg.t_end) {
      const cwcsim::quantum_outcome out =
          cwcsim::advance_one_quantum(eng, cfg, i, qs.size());
      qs.push_back(out.record);
    }
  }
  return w;
}

double measure_sim_ns_per_step(const cwcsim::model_ref& model,
                               const cwcsim::sim_config& cfg) {
  cwcsim::model_ref mr = model;
  mr.compile();

  // Run a few trajectories to t_end (capped).
  const double horizon = std::min(cfg.t_end, 50.0 * cfg.sample_period);
  std::vector<cwc::trajectory_sample> scratch;
  std::uint64_t steps = 0;
  util::stopwatch sw;
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto eng = mr.make_engine(cfg.seed ^ 0xCA11B8A7E, i);
    eng.run_to(horizon, cfg.sample_period, scratch);
    steps += eng.steps();
    scratch.clear();
  }
  const double ns = static_cast<double>(sw.elapsed_ns());
  return steps > 100 ? ns / static_cast<double>(steps)
                     : calibration{}.sim_ns_per_step;
}

calibration calibrate(const cwcsim::model_ref& model,
                      const cwcsim::sim_config& cfg) {
  calibration c;
  c.sim_ns_per_step = measure_sim_ns_per_step(model, cfg);

  // --- statistics cost: summarize representative synthetic cuts ----------
  {
    const std::size_t n = std::max<std::uint64_t>(cfg.num_trajectories, 16);
    const std::size_t d = std::max<std::size_t>(model.num_observables(), 1);
    util::rng_stream rng(7, 7);
    stats::trajectory_cut cut;
    cut.dims = d;
    cut.values.resize(n * d);
    for (auto& v : cut.values) v = 100.0 + 50.0 * rng.next_normal();
    const int reps = 20;
    util::stopwatch sw;
    for (int r = 0; r < reps; ++r)
      (void)stats::summarize_cut(cut, cfg.kmeans_k, cfg.seed);
    const double ns = static_cast<double>(sw.elapsed_ns());
    c.stat_ns_per_point =
        ns / (static_cast<double>(reps) * static_cast<double>(n) *
              static_cast<double>(d));
  }

  // Alignment ingest is a copy of `observables` doubles plus counter
  // bookkeeping; estimate it as a fraction of the stat point cost with a
  // conservative floor.
  c.align_ns_per_sample = std::max(50.0, 2.0 * c.stat_ns_per_point);
  return c;
}

}  // namespace des
