#include "core/nodes.hpp"

#include <utility>

#include "util/check.hpp"

namespace cwcsim {

// ---------------------------------------------------------------- generator

task_generator::task_generator(model_ref model, const sim_config& cfg,
                               const event_sink& events)
    : model_(std::move(model)), cfg_(&cfg), events_(&events) {
  set_name("task-generator");
}

ff::outcome task_generator::svc(ff::token /*tick*/) {
  const std::uint64_t n = cfg_->num_trajectories;
  if (next_ >= n || events_->stop_requested()) return ff::outcome::end;
  auto engine = model_.make_engine(cfg_->seed, next_);
  send_out(ff::token::make<sim_task>(next_, std::move(engine)));
  ++next_;
  return next_ < n ? ff::outcome::more : ff::outcome::end;
}

// ---------------------------------------------------------------- scheduler

task_scheduler::task_scheduler(event_sink& events) : events_(&events) {
  set_name("task-scheduler");
  set_continue_after_eos(true);
}

ff::outcome task_scheduler::maybe_done() const noexcept {
  return (upstream_done_ && outstanding_ == 0) ? ff::outcome::end
                                               : ff::outcome::more;
}

ff::outcome task_scheduler::svc(ff::token t) {
  if (t.holds<sim_task>()) {
    const bool fresh = t.as<sim_task>().quantum_index == 0;
    if (events_->stop_requested()) {
      // Cooperative cancellation: retire in-flight tasks instead of
      // redispatching; fresh tasks were never counted as outstanding.
      if (!fresh) {
        util::expects(outstanding_ > 0, "retired task was not outstanding");
        --outstanding_;
      }
      return maybe_done();
    }
    if (fresh) ++outstanding_;
    ++dispatched_;
    send_out(std::move(t));
    return ff::outcome::more;
  }
  if (t.holds<task_done>()) {
    util::expects(outstanding_ > 0, "completion for unknown task");
    --outstanding_;
    completions_.push_back(t.as<task_done>());
    events_->trajectory_done(t.as<task_done>());
    return maybe_done();
  }
  util::ensures(false, "task_scheduler received unexpected token type");
  return ff::outcome::more;
}

ff::outcome task_scheduler::on_upstream_eos() {
  upstream_done_ = true;
  return maybe_done();
}

// ------------------------------------------------------------------- worker

sim_engine_node::sim_engine_node(const sim_config& cfg, unsigned worker_id)
    : cfg_(&cfg) {
  set_name("sim-engine-" + std::to_string(worker_id));
}

ff::outcome sim_engine_node::svc(ff::token t) {
  auto task = t.take<sim_task>();
  auto outcome = advance_one_quantum(task.engine, *cfg_, task.trajectory_id,
                                     task.quantum_index);
  if (!outcome.batch.samples.empty())
    send_out(ff::token::of(std::move(outcome.batch)));

  if (outcome.finished) {
    send_feedback(ff::token::of(outcome.done));
  } else {
    ++task.quantum_index;
    send_feedback(ff::token::make<sim_task>(std::move(task)));
  }
  return ff::outcome::more;
}

// ----------------------------------------------------------------- analysis

analysis_node::analysis_node(const sim_config& cfg, std::size_t num_observables,
                             event_sink& events)
    : stage_(cfg, num_observables, events, cfg.stat_engines) {
  set_name("analysis");
}

ff::outcome analysis_node::svc(ff::token t) {
  const auto batch = t.take<sample_batch>();
  for (const auto& s : batch.samples) stage_.ingest(batch.trajectory_id, s);
  return ff::outcome::more;
}

void analysis_node::on_eos() { stage_.finish(); }

}  // namespace cwcsim
