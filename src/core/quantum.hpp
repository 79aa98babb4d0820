// The per-quantum advancement contract shared by the lane executor's scalar
// lanes (the multicore and gpu backends, the distributed hosts, the run
// server and sweep campaigns) and the DES workload capture: run one
// scheduling quantum, fast-forward stalled trajectories to the horizon,
// and report the samples, what the quantum cost, and completion. No
// backend keeps the cost records: des::capture_workload replays engines
// through this function to build the library's one per-quantum workload
// record.
//
// Keeping this in one place is what makes the cross-backend bit-exactness
// guarantee durable: every deployment advances engines with the same
// horizon clamp and the same stalled-tail handling (batch_engine's
// step_quantum replays it lane by lane).
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/config.hpp"
#include "core/messages.hpp"

namespace cwcsim {

struct quantum_outcome {
  sample_batch batch;     ///< samples produced this quantum (may be empty)
  quantum_record record;  ///< what this quantum cost
  bool finished = false;  ///< trajectory reached t_end
  task_done done;         ///< valid when finished
};

/// Advance `engine` by one quantum of `cfg.quantum` simulated time
/// (clamped to cfg.t_end), sampling every cfg.sample_period.
inline quantum_outcome advance_one_quantum(any_engine& engine,
                                           const sim_config& cfg,
                                           std::uint64_t trajectory_id,
                                           std::uint64_t quantum_index) {
  quantum_outcome out;
  const std::uint64_t steps_before = engine.steps();

  out.batch.trajectory_id = trajectory_id;
  const double horizon = std::min(engine.time() + cfg.quantum, cfg.t_end);
  engine.run_to(horizon, cfg.sample_period, out.batch.samples);
  if (engine.stalled() && engine.time() < cfg.t_end) {
    // No reaction can ever fire again: emit the frozen tail immediately
    // instead of rescheduling a dead trajectory.
    engine.run_to(cfg.t_end, cfg.sample_period, out.batch.samples);
  }

  out.record.ssa_steps = engine.steps() - steps_before;
  out.record.samples = static_cast<std::uint32_t>(out.batch.samples.size());

  if (engine.time() >= cfg.t_end) {
    out.finished = true;
    out.done.trajectory_id = trajectory_id;
    out.done.quanta = quantum_index + 1;
    out.done.steps = engine.steps();
  }
  return out;
}

}  // namespace cwcsim
