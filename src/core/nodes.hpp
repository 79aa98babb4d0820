// The concurrent stages of the CWC simulation-analysis workflow of the
// paper's Fig. 2:
//
//  simulation pipeline: task_generator -> [task_scheduler -> sim_engine_node*
//                       (feedback)]
//  analysis pipeline:   analysis_node: alignment on the node's thread, then
//                       cfg.stat_engines statistical engines and the
//                       in-order gather (core/analysis_stage.hpp)
#pragma once

#include <vector>

#include "core/analysis_stage.hpp"
#include "core/config.hpp"
#include "core/events.hpp"
#include "core/messages.hpp"
#include "core/quantum.hpp"
#include "core/result.hpp"
#include "ff/ff.hpp"

namespace cwcsim {

/// Stage 1: generation of simulation tasks. Emits one task per trajectory
/// id 0..num_trajectories-1, each owning a fresh engine with its own
/// (seed, id) RNG stream built from the model's shared compiled artifact.
/// Generation ends early once the sink requests stop.
class task_generator final : public ff::node {
 public:
  task_generator(model_ref model, const sim_config& cfg,
                 const event_sink& events);
  ff::outcome svc(ff::token t) override;

 private:
  model_ref model_;
  const sim_config* cfg_;
  const event_sink* events_;
  std::uint64_t next_ = 0;
};

/// Farm emitter: dispatches tasks to simulation engines on demand and
/// receives rescheduled tasks / completion notices on the feedback
/// channel. Terminates when the generator is done and every
/// trajectory has completed. Completion notices are streamed through the
/// sink as they happen, and once stop is requested in-flight tasks are
/// retired instead of redispatched.
class task_scheduler final : public ff::node {
 public:
  explicit task_scheduler(event_sink& events);
  ff::outcome svc(ff::token t) override;
  ff::outcome on_upstream_eos() override;

  std::uint64_t dispatched() const noexcept { return dispatched_; }

  /// Completion notices, one per finished trajectory (valid after the run).
  const std::vector<task_done>& completions() const noexcept {
    return completions_;
  }

 private:
  ff::outcome maybe_done() const noexcept;
  event_sink* events_;
  std::uint64_t outstanding_ = 0;
  std::uint64_t dispatched_ = 0;
  bool upstream_done_ = false;
  std::vector<task_done> completions_;
};

/// Farm worker: runs one simulation quantum, streams the quantum's samples
/// to the alignment stage, and feeds the task (or a completion notice)
/// back to the scheduler.
class sim_engine_node final : public ff::node {
 public:
  sim_engine_node(const sim_config& cfg, unsigned worker_id);
  ff::outcome svc(ff::token t) override;

 private:
  const sim_config* cfg_;
};

/// The analysis pipeline as one node: aligns the sample batches the
/// simulation engines stream on its own thread and summarises the cuts on
/// cfg.stat_engines statistical engines (analysis_stage), which hand the
/// ordered windows to the sink — the alignment, windows, farm of
/// statistical engines and gather boxes of Fig. 2.
class analysis_node final : public ff::node {
 public:
  analysis_node(const sim_config& cfg, std::size_t num_observables,
                event_sink& events);
  ff::outcome svc(ff::token t) override;
  void on_eos() override;

 private:
  analysis_stage stage_;
};

}  // namespace cwcsim
