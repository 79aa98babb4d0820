// The serial oracle of the conformance suite: what every backend must
// produce, computed with no backend scheduling code at all. One
// standalone engine per trajectory, built on the compiled model and
// advanced with advance_one_quantum to t_end (replay_trajectory, which
// the lane-executor and sweep suites replay lanes with too), trajectory
// after trajectory; its samples go through cut_assembler, each released
// cut is summarised with stats::summarize_cut, and the cuts are cut into
// sliding windows exactly as stats::sliding_window_builder cuts them
// (trailing partial window included). No farm, lane executor, worker pool
// or analysis stage is involved, so the oracle does not change when those
// do.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/alignment.hpp"
#include "core/messages.hpp"
#include "core/quantum.hpp"
#include "cwc/compiled_model.hpp"
#include "stats/cut.hpp"

namespace oracle {

/// (trajectory, quanta, steps) of one completion.
using completion = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

struct serial_result {
  std::vector<cwcsim::window_summary> windows;
  std::vector<completion> completions;  ///< in trajectory order
};

/// One trajectory replayed on its own engine: every sample it emitted, and
/// its completion's quanta and steps.
struct trajectory_replay {
  std::vector<cwc::trajectory_sample> samples;
  std::uint64_t quanta = 0;
  std::uint64_t steps = 0;
};

/// Trajectory `id` of `cm` on one standalone engine seeded (cfg.seed, id),
/// advanced with advance_one_quantum until it reaches cfg.t_end.
inline trajectory_replay replay_trajectory(
    const std::shared_ptr<const cwc::compiled_model>& cm,
    const cwcsim::sim_config& cfg, std::uint64_t id) {
  cwcsim::any_engine engine(cm, cfg.seed, id);
  trajectory_replay out;
  for (std::uint64_t q = 0;; ++q) {
    auto step = cwcsim::advance_one_quantum(engine, cfg, id, q);
    out.samples.insert(out.samples.end(), step.batch.samples.begin(),
                       step.batch.samples.end());
    if (step.finished) {
      out.quanta = step.done.quanta;
      out.steps = step.done.steps;
      return out;
    }
  }
}

/// Completions as a sorted list: the set a backend's completions must equal,
/// whatever order it reported them in.
inline std::vector<completion> completion_set(
    const std::vector<cwcsim::task_done>& done) {
  std::vector<completion> out;
  out.reserve(done.size());
  for (const auto& d : done) out.emplace_back(d.trajectory_id, d.quanta, d.steps);
  std::sort(out.begin(), out.end());
  return out;
}

inline serial_result serial_run(
    const std::shared_ptr<const cwc::compiled_model>& cm,
    const cwcsim::sim_config& cfg) {
  serial_result out;
  cwcsim::cut_assembler assembler(cfg, cm->num_observables());
  stats::sliding_window_builder builder(cfg.window_size, cfg.window_slide);
  std::vector<stats::trajectory_window> windows;
  const auto take = [&](std::vector<stats::trajectory_window>&& ws) {
    for (auto& w : ws) windows.push_back(std::move(w));
  };

  for (std::uint64_t id = 0; id < cfg.num_trajectories; ++id) {
    const trajectory_replay t = replay_trajectory(cm, cfg, id);
    for (const auto& s : t.samples)
      assembler.ingest(id, s, [&](stats::trajectory_cut&& c) {
        take(builder.push(std::move(c)));
      });
    out.completions.emplace_back(id, t.quanta, t.steps);
  }
  take(builder.flush());

  for (const auto& w : windows) {
    cwcsim::window_summary s{w.first_sample, {}};
    for (const auto& c : w.cuts)
      s.cuts.push_back(stats::summarize_cut(c, cfg.kmeans_k, cfg.seed));
    out.windows.push_back(std::move(s));
  }
  return out;
}

}  // namespace oracle
