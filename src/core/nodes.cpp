#include "core/nodes.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/stopwatch.hpp"

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
    : cfg_(&cfg), worker_id_(worker_id) {
  set_name("sim-engine-" + std::to_string(worker_id));
}

ff::outcome sim_engine_node::svc(ff::token t) {
  auto task = t.take<sim_task>();
  auto outcome = advance_one_quantum(task.engine, *cfg_, task.trajectory_id,
                                     task.quantum_index);

  ++quanta_;
  if (cfg_->capture_trace) trace_.push_back(outcome.record);

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

// ------------------------------------------------------------------ aligner

trajectory_aligner::trajectory_aligner(const sim_config& cfg,
                                       std::size_t num_observables,
                                       const event_sink& events)
    : assembler_(cfg, num_observables), events_(&events) {
  set_name("trajectory-aligner");
}

ff::outcome trajectory_aligner::svc(ff::token t) {
  const auto batch = t.take<sample_batch>();
  for (const auto& s : batch.samples) {
    assembler_.ingest(batch.trajectory_id, s, [this](stats::trajectory_cut&& c) {
      send_out(ff::token::of(std::move(c)));
    });
  }
  return ff::outcome::more;
}

void trajectory_aligner::on_eos() {
  // A complete run leaves nothing behind; partially filled cuts indicate a
  // trajectory loss upstream and must not silently disappear. A cancelled
  // run legitimately drops the cuts its retired trajectories never filled.
  if (events_->stop_requested()) return;
  util::ensures(assembler_.drained(), "alignment buffer not drained at EOS");
}

// ---------------------------------------------------------------- windowing

window_generator::window_generator(const sim_config& cfg)
    : builder_(cfg.window_size, cfg.window_slide) {
  set_name("window-generator");
}

ff::outcome window_generator::svc(ff::token t) {
  for (auto& w : builder_.push(t.take<stats::trajectory_cut>()))
    send_out(ff::token::of(std::move(w)));
  return ff::outcome::more;
}

void window_generator::on_eos() {
  for (auto& w : builder_.flush()) send_out(ff::token::of(std::move(w)));
}

// -------------------------------------------------------------- stat engine

stat_engine_node::stat_engine_node(const sim_config& cfg) : cfg_(&cfg) {
  set_name("stat-engine");
}

ff::outcome stat_engine_node::svc(ff::token t) {
  const auto w = t.take<stats::trajectory_window>();
  window_summary out;
  out.first_sample = w.first_sample;
  out.cuts.reserve(w.cuts.size());
  for (const auto& cut : w.cuts)
    out.cuts.push_back(stats::summarize_cut(cut, cfg_->kmeans_k, cfg_->seed));
  ++processed_;
  send_out(ff::token::of(std::move(out)));
  return ff::outcome::more;
}

// ------------------------------------------------------------------ reorder

reorder_gather::reorder_gather(std::uint64_t slide) : slide_(slide) {
  set_name("reorder-gather");
  util::expects(slide > 0, "reorder_gather: slide must be positive");
}

ff::outcome reorder_gather::svc(ff::token t) {
  auto w = t.take<window_summary>();
  held_.emplace(w.first_sample, std::move(w));
  while (!held_.empty() && held_.begin()->first == next_) {
    auto node = held_.extract(held_.begin());
    send_out(ff::token::of(std::move(node.mapped())));
    next_ += slide_;
  }
  return ff::outcome::more;
}

void reorder_gather::on_eos() {
  // A trailing partial window may sit at an off-grid key; drain in order.
  for (auto& [k, w] : held_) send_out(ff::token::of(std::move(w)));
  held_.clear();
}

// --------------------------------------------------------------------- sink

result_sink::result_sink(event_sink& events) : events_(&events) {
  set_name("result-sink");
}

ff::outcome result_sink::svc(ff::token t) {
  if (t.holds<window_summary>()) {
    events_->window(t.take<window_summary>());
    return ff::outcome::more;
  }
  util::ensures(false, "result_sink received unexpected token type");
  return ff::outcome::more;
}

}  // namespace cwcsim
