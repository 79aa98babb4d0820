// The multicore backend (cwcsim::multicore): the Fig. 2 farm of simulation
// engines as lane rounds on a pool of cfg.sim_workers threads.
#include <memory>

#include "core/analysis_stage.hpp"
#include "core/backend.hpp"
#include "core/lane_executor.hpp"
#include "util/stopwatch.hpp"

namespace cwcsim {

namespace detail {

namespace {

/// The shared-memory CWC simulator with on-line parallel analysis (paper
/// §IV-A, Fig. 2). The lane executor advances every live trajectory one
/// quantum per round on cfg.sim_workers pool threads — SoA batch groups
/// of batch_width lanes when the model allows, scalar engines otherwise —
/// and, while the pool steps round r + 1, the driving thread feeds round
/// r's samples to the analysis stage, whose cfg.stat_engines workers
/// summarise cuts beside both. Completions stream in lane order after the
/// samples of the round that retires them; the sink's stop flag is
/// honoured after each delivered round.
class multicore_driver final : public backend_driver {
 public:
  multicore_driver(const model_ref& model, const sim_config& cfg,
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
    if (!sink.stop_requested()) {
      lanes.run(
          [&](const lane_executor::lane_quantum& q) {
            for (const auto& s : q.samples)
              analysis.ingest(q.id.trajectory_id, s);
          },
          [&](std::uint32_t, const task_done& d) {
            report.result.completions.push_back(d);
            sink.trajectory_done(d);
          },
          [&] { return !sink.stop_requested(); });
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
  // run_builder::open() compiled the model: every lane shares its artifact.
  return std::make_unique<multicore_driver>(model, cfg, b.batch_width);
}

}  // namespace detail

}  // namespace cwcsim
