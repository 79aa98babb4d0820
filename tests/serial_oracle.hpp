// The serial oracle of the conformance suite: what every in-process backend
// must produce, computed with no backend scheduling code at all. One
// standalone engine per trajectory, built on the compiled model and
// advanced with advance_one_quantum to t_end, trajectory after trajectory;
// its samples go through cut_assembler, each released cut is summarised
// with stats::summarize_cut, and the cuts are cut into sliding windows
// exactly as stats::sliding_window_builder cuts them (trailing partial
// window included). No farm, lane executor, worker pool or analysis stage
// is involved, so the oracle does not change when those do.
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
    cwcsim::any_engine engine(cm, cfg.seed, id);
    for (std::uint64_t q = 0;; ++q) {
      auto step = cwcsim::advance_one_quantum(engine, cfg, id, q);
      for (const auto& s : step.batch.samples)
        assembler.ingest(id, s, [&](stats::trajectory_cut&& c) {
          take(builder.push(std::move(c)));
        });
      if (step.finished) {
        out.completions.emplace_back(id, step.done.quanta, step.done.steps);
        break;
      }
    }
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
