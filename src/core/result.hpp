// The aggregated output of a simulation-analysis run.
#pragma once

#include <cstdint>
#include <vector>

#include "core/messages.hpp"

namespace cwcsim {

struct simulation_result {
  /// Ordered window summaries (the stream the GUI/storage would receive).
  std::vector<window_summary> windows;

  /// Completion notices, one per trajectory.
  std::vector<task_done> completions;

  /// Wall-clock duration of the whole pipeline run (seconds).
  double wall_seconds = 0.0;

  /// Pipeline shape actually used.
  unsigned sim_workers = 0;
  unsigned stat_engines = 0;

  /// All per-cut summaries flattened in time order. With slide == size
  /// every cut appears exactly once.
  std::vector<stats::cut_summary> all_cuts() const {
    std::vector<stats::cut_summary> out;
    for (const auto& w : windows)
      for (const auto& c : w.cuts) out.push_back(c);
    return out;
  }
};

}  // namespace cwcsim
