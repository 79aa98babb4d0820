// The multicore backend (cwcsim::multicore): the per-engine Fig. 2 farm
// pipeline, and the opt-in batched path over the lane executor.
#include <memory>
#include <vector>

#include "core/backend.hpp"
#include "core/lane_executor.hpp"
#include "core/nodes.hpp"
#include "util/stopwatch.hpp"

namespace cwcsim {

namespace detail {

namespace {

/// The shared-memory CWC simulator with on-line parallel analysis (paper
/// §IV-A, Fig. 2). run() wires
///
///   generation -> farm(simulation engines, feedback) -> analysis
///
/// into one ff network and runs it to completion. The analysis node aligns
/// the workers' samples and summarises cuts on cfg.stat_engines statistical
/// engines, streaming ordered window summaries through the session's sink
/// beside the completion notices (the sink's stop flag is honoured).
class multicore_driver final : public backend_driver {
 public:
  multicore_driver(const model_ref& model, const sim_config& cfg)
      : model_(model), cfg_(cfg) {}

  const char* name() const noexcept override { return "multicore"; }

  void run(event_sink& sink, run_report& report) override {
    ff::network net;
    simulation_result& result = report.result;
    result.sim_workers = cfg_.sim_workers;
    result.stat_engines = cfg_.stat_engines;

    // ---- simulation pipeline -----------------------------------------
    ff::pipeline pipe;
    pipe.add_stage(std::make_unique<task_generator>(model_, cfg_, sink));

    std::vector<std::unique_ptr<ff::node>> sim_workers;
    for (unsigned w = 0; w < cfg_.sim_workers; ++w)
      sim_workers.push_back(std::make_unique<sim_engine_node>(cfg_, w));
    auto sim_farm = std::make_unique<ff::farm>(std::move(sim_workers));
    auto scheduler = std::make_unique<task_scheduler>(sink);
    task_scheduler* scheduler_ptr = scheduler.get();
    sim_farm->set_emitter(std::move(scheduler))
        .enable_feedback(ff::feedback_from::workers);
    pipe.add_stage(std::move(sim_farm));

    // ---- analysis pipeline --------------------------------------------
    pipe.add_stage(std::make_unique<analysis_node>(
        cfg_, model_.num_observables(), sink));

    // ---- run ----------------------------------------------------------
    pipe.materialize(net);
    util::stopwatch sw;
    net.run_and_wait();
    result.wall_seconds = sw.elapsed_s();

    result.completions = scheduler_ptr->completions();
  }

 private:
  model_ref model_;
  sim_config cfg_;
};

/// The opt-in batched shared-memory path (multicore{batch_width}): the
/// lane executor advances SoA batch groups of batch_width lanes
/// quantum-lockstep on a persistent worker pool, and the rounds' samples
/// feed the analysis stage, whose cfg.stat_engines workers summarise cuts
/// while later rounds step.
/// Windows, completions, and sample paths are bit-identical to the
/// per-engine farm (the batch engine's lane-exactness guarantee); only the
/// scheduling differs.
class batched_multicore_driver final : public backend_driver {
 public:
  batched_multicore_driver(const model_ref& model, const sim_config& cfg,
                           std::size_t batch_width)
      : model_(model), cfg_(cfg), batch_width_(batch_width) {}

  const char* name() const noexcept override { return "multicore"; }

  void run(event_sink& sink, run_report& report) override {
    util::stopwatch wall;
    lane_executor lanes({model_.compiled}, cfg_,
                        lane_executor::ensemble(cfg_.num_trajectories),
                        batch_width_, cfg_.sim_workers);
    analysis_stage analysis(cfg_, model_.num_observables(), sink,
                            cfg_.stat_engines);
    while (lanes.live() > 0 && !sink.stop_requested()) {
      lanes.round(
          [&](const lane_executor::lane_quantum& q) {
            for (const auto& s : q.samples)
              analysis.ingest(q.id.trajectory_id, s);
          },
          [&](std::uint32_t, const task_done& d) {
            report.result.completions.push_back(d);
            sink.trajectory_done(d);
          });
    }
    analysis.finish();

    report.result.sim_workers = cfg_.sim_workers;
    report.result.stat_engines = cfg_.stat_engines;
    report.result.wall_seconds = wall.elapsed_s();
  }

 private:
  model_ref model_;
  sim_config cfg_;
  std::size_t batch_width_;
};

}  // namespace

std::unique_ptr<backend_driver> make_multicore_driver(const model_ref& model,
                                                      const sim_config& cfg,
                                                      const multicore& b) {
  // run_builder::open() compiled the model: the groups share its artifact.
  if (lane_executor::batches({model.compiled}, b.batch_width))
    return std::make_unique<batched_multicore_driver>(model, cfg,
                                                      b.batch_width);
  return std::make_unique<multicore_driver>(model, cfg);
}

}  // namespace detail

}  // namespace cwcsim
