// The lockstep quantum round shared by every backend that advances a
// population of trajectories one scheduling quantum at a time: the batched
// multicore driver, the gpu backend's ff_mapCUDA-style kernels (paper
// §IV-C) and sweep campaigns.
//
// The executor owns the one batch/scalar decision those users make: when
// batch_width > 1 and every cell passes batch_engine::supports, the lane
// list is sliced into SoA batch_engine groups of batch_width lanes (slices
// may span cells); otherwise every lane is one scalar any_engine advanced
// by advance_one_quantum (core/quantum.hpp). Either way lane i replays the
// scalar engine (cells[lane.cell], cfg.seed, lane.trajectory_id) bit for
// bit, so the choice changes speed, never results.
//
// Callbacks run on the calling thread after the parallel step, in lane
// order — the deterministic stream every analysis stage relies on, on
// every worker count and batch width.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "cwc/batch/batch_engine.hpp"
#include "ff/parallel_for.hpp"

namespace cwcsim {

class lane_executor {
 public:
  using cell_list = std::vector<std::shared_ptr<const cwc::compiled_model>>;
  /// One lane: the trajectory stream it owns and the cell it runs under.
  using lane = cwc::batch::batch_engine::lane_desc;

  /// One live lane's share of the round just run; `samples` is valid only
  /// during the callback.
  struct lane_quantum {
    lane id;
    std::uint64_t steps = 0;  ///< SSA steps executed this quantum
    std::span<const cwc::trajectory_sample> samples;  ///< may be empty
    double time = 0.0;              ///< engine time after this quantum
    std::uint64_t total_steps = 0;  ///< SSA steps since the lane started
  };
  using samples_fn = std::function<void(const lane_quantum&)>;
  /// Receives the lane's cell and {trajectory_id, quanta, steps}, where
  /// quanta is the number of rounds run so far.
  using done_fn = std::function<void(std::uint32_t cell, const task_done&)>;

  /// The cell-major lane list: trajectory i of cell c is lane c * n + i.
  static std::vector<lane> ensemble(std::uint64_t n, std::uint32_t cells = 1);

  /// True when lanes over `cells` run as SoA batch groups of batch_width.
  static bool batches(const cell_list& cells, std::size_t batch_width);

  /// Build every engine. The pool runs min(workers, units) threads, where
  /// a unit is one batch group or one scalar lane.
  lane_executor(cell_list cells, const sim_config& cfg,
                std::vector<lane> lanes, std::size_t batch_width,
                unsigned workers);

  /// Lanes that have not reached cfg.t_end yet.
  std::size_t live() const noexcept { return live_; }

  /// Rounds run so far: the quantum index the next round executes.
  std::uint64_t rounds() const noexcept { return rounds_; }

  /// Advance every live lane one quantum on the pool, then call
  /// on_samples for every lane that was live and on_done for every lane
  /// that reached cfg.t_end, each pass in lane order. Returns the
  /// simulated time the round advanced, summed over lanes.
  double round(const samples_fn& on_samples, const done_fn& on_done);

 private:
  /// One batch group, or one scalar lane.
  struct unit {
    std::unique_ptr<cwc::batch::batch_engine> batch;
    std::optional<any_engine> scalar;
    std::vector<std::vector<cwc::trajectory_sample>> out;  ///< per lane
    std::size_t live = 0;
  };

  void step(std::size_t u);
  std::uint64_t steps_of(std::size_t i) const;
  double time_of(std::size_t i) const;

  sim_config cfg_;
  std::vector<lane> lanes_;
  std::size_t width_;  ///< lanes per unit: batch_width, or 1 for scalar lanes
  std::vector<unit> units_;
  std::vector<std::uint64_t> steps_;   ///< per lane, as of its last round
  std::vector<std::uint8_t> retired_;  ///< per lane
  std::size_t live_;
  std::uint64_t rounds_ = 0;
  ff::parallel_for pool_;
};

}  // namespace cwcsim
