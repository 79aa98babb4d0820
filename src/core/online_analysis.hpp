// The master-side align -> sliding-window -> summarize composition shared
// by every backend that runs the analysis stages inline on one thread: the
// lane_executor users that run whole ensembles (the batched multicore
// driver and the gpu driver, between lockstep rounds), the distributed
// master, and the run server's per-session state. Keeping it in one place
// is what makes the cross-backend bit-exactness guarantee durable: every
// deployment summarizes windows with the same cut assembly, the same
// window grouping, and the same summarize_cut parameters.
#pragma once

#include "core/alignment.hpp"
#include "core/events.hpp"

namespace cwcsim {

class online_analysis {
 public:
  online_analysis(const sim_config& cfg, std::size_t num_observables,
                  event_sink& sink)
      : cfg_(&cfg),
        sink_(&sink),
        assembler_(cfg, num_observables),
        builder_(cfg.window_size, cfg.window_slide) {}

  /// Feed one sample; completed cuts roll into windows and summaries flow
  /// to the sink in time order, on-line.
  void ingest(std::uint64_t trajectory, const cwc::trajectory_sample& s) {
    assembler_.ingest(trajectory, s, [this](stats::trajectory_cut&& cut) {
      for (auto& w : builder_.push(std::move(cut))) summarize(std::move(w));
    });
  }

  /// Flush the trailing partial window. On a complete (non-stopped) run,
  /// a partially-filled cut left behind means a trajectory was lost
  /// upstream and must not silently disappear; a cancelled run
  /// legitimately drops the cuts its retired trajectories never filled.
  void finish() {
    for (auto& w : builder_.flush()) summarize(std::move(w));
    if (!sink_->stop_requested())
      util::ensures(assembler_.drained(),
                    "alignment buffer not drained at EOS");
  }

 private:
  void summarize(stats::trajectory_window&& w) {
    window_summary s;
    s.first_sample = w.first_sample;
    s.cuts.reserve(w.cuts.size());
    for (const auto& cut : w.cuts)
      s.cuts.push_back(stats::summarize_cut(cut, cfg_->kmeans_k, cfg_->seed));
    sink_->window(std::move(s));
  }

  const sim_config* cfg_;
  event_sink* sink_;
  cut_assembler assembler_;
  stats::sliding_window_builder builder_;
};

}  // namespace cwcsim
