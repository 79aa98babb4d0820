// The concurrent stages of the CWC simulation-analysis workflow, mapping
// one-to-one onto the boxes of the paper's Fig. 2:
//
//  simulation pipeline: task_generator -> [task_scheduler -> sim_engine_node*
//                       (feedback)] -> trajectory_aligner
//  analysis pipeline:   window_generator -> [stat_engine_node*] ->
//                       reorder_gather -> result_sink
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/alignment.hpp"
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

/// Farm emitter: dispatches tasks to simulation engines (on-demand by
/// default) and receives rescheduled tasks / completion notices on the
/// feedback channel. Terminates when the generator is done and every
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

  /// Per-quantum service-time trace (valid after the run completes).
  const std::vector<quantum_record>& trace() const noexcept { return trace_; }
  std::uint64_t quanta_executed() const noexcept { return quanta_; }
  unsigned worker_id() const noexcept { return worker_id_; }

 private:
  const sim_config* cfg_;
  unsigned worker_id_;
  std::uint64_t quanta_ = 0;
  std::vector<quantum_record> trace_;
};

/// Stage 3 of the simulation pipeline: "sorts out all received results and
/// aligns them according to the amount of simulation time", releasing a cut
/// once every trajectory has contributed its sample.
class trajectory_aligner final : public ff::node {
 public:
  trajectory_aligner(const sim_config& cfg, std::size_t num_observables,
                     const event_sink& events);
  ff::outcome svc(ff::token t) override;
  void on_eos() override;

  std::uint64_t cuts_emitted() const noexcept { return assembler_.emitted(); }

 private:
  cut_assembler assembler_;
  const event_sink* events_;
};

/// Analysis stage 1: groups the cut stream into sliding windows.
class window_generator final : public ff::node {
 public:
  explicit window_generator(const sim_config& cfg);
  ff::outcome svc(ff::token t) override;
  void on_eos() override;

 private:
  stats::sliding_window_builder builder_;
};

/// Analysis farm worker: per-window statistics (mean/variance/median per
/// cut and k-means clustering of trajectories).
class stat_engine_node final : public ff::node {
 public:
  explicit stat_engine_node(const sim_config& cfg);
  ff::outcome svc(ff::token t) override;

  std::uint64_t windows_processed() const noexcept { return processed_; }

 private:
  const sim_config* cfg_;
  std::uint64_t processed_ = 0;
};

/// Analysis collector: restores window order (workers finish out of order)
/// before streaming to the sink — the "gather" box of Fig. 2.
class reorder_gather final : public ff::node {
 public:
  /// Windows are keyed by first_sample and spaced by `slide`.
  explicit reorder_gather(std::uint64_t slide);
  ff::outcome svc(ff::token t) override;
  void on_eos() override;

 private:
  std::map<std::uint64_t, window_summary> held_;  // keyed by first_sample
  std::uint64_t slide_;
  std::uint64_t next_ = 0;
};

/// Terminal stage: hands each ordered summary to the session's event sink
/// as the gather stage emits it (stands in for the GUI/storage of Fig. 2)
/// — no terminal gather-then-copy.
class result_sink final : public ff::node {
 public:
  explicit result_sink(event_sink& events);
  ff::outcome svc(ff::token t) override;

 private:
  event_sink* events_;
};

}  // namespace cwcsim
