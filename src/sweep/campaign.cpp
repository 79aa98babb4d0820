#include "sweep/campaign.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <variant>

#include "core/alignment.hpp"
#include "core/lane_executor.hpp"
#include "stats/quantile.hpp"
#include "util/check.hpp"

namespace cwcsim {

namespace {

std::vector<std::string> observable_names(const cwc::compiled_model& cm) {
  std::vector<std::string> out;
  if (cm.is_tree()) {
    out.reserve(cm.tree()->observables().size());
    for (const cwc::observable& o : cm.tree()->observables())
      out.push_back(o.name);
  } else {
    const cwc::symbol_table& st = cm.flat()->species();
    out.reserve(st.size());
    for (std::uint32_t i = 0; i < st.size(); ++i) out.push_back(st.name(i));
  }
  return out;
}

/// Per-cell online reduction: the SAME cut assembly as every backend's
/// analysis stage (core/alignment.hpp). The assembler releases each cut
/// once, in sample-index order, and the cut is folded — its trajectories
/// in trajectory-id order — into the cell's report entry as it leaves.
class cell_reducer {
 public:
  cell_reducer(const sim_config& cfg, std::size_t num_observables,
               sweep::cell_report& out)
      : cfg_(&cfg),
        num_observables_(num_observables),
        out_(&out),
        assembler_(cfg, num_observables) {}

  void ingest(std::uint64_t trajectory, const cwc::trajectory_sample& s) {
    assembler_.ingest(trajectory, s,
                      [this](stats::trajectory_cut&& cut) { fold(cut); });
  }

  /// Only called once every trajectory of the cell completed, so a
  /// partially-filled cut means samples were lost upstream.
  void finish() const {
    util::ensures(assembler_.drained(),
                  "sweep cell alignment buffer not drained");
  }

 private:
  void fold(const stats::trajectory_cut& cut) {
    sweep::point_summary p;
    p.sample_index = cut.sample_index;
    p.time = cut.time;
    p.observables.resize(num_observables_);
    for (std::size_t d = 0; d < num_observables_; ++d) {
      sweep::observable_summary& os = p.observables[d];
      stats::p2_quantile q10(0.1), q50(0.5), q90(0.9);
      for (std::size_t i = d; i < cut.values.size(); i += cut.dims) {
        const double x = cut.values[i];
        os.moments.add(x);
        q10.add(x);
        q50.add(x);
        q90.add(x);
      }
      os.q10 = q10.value();
      os.q50 = q50.value();
      os.q90 = q90.value();
    }
    if (cfg_->kmeans_k > 0)
      p.clusters =
          stats::kmeans(cut.values, cut.dims, cfg_->kmeans_k, cfg_->seed);
    out_->points.push_back(std::move(p));
  }

  const sim_config* cfg_;
  std::size_t num_observables_;
  sweep::cell_report* out_;
  cut_assembler assembler_;
};

/// The builder's sink: forwards to an optional caller-owned sink and fires
/// the per-cell callbacks on top.
class forwarding_sink final : public event_sink {
 public:
  forwarding_sink(
      event_sink* inner,
      const std::function<void(std::uint32_t, std::uint64_t, std::uint64_t)>&
          progress_cb,
      const std::function<void(std::uint32_t)>& done_cb)
      : inner_(inner), progress_cb_(progress_cb), done_cb_(done_cb) {}

  void window(window_summary&& w) override {
    if (inner_ != nullptr) inner_->window(std::move(w));
  }
  void trajectory_done(const task_done& d) override {
    if (inner_ != nullptr) inner_->trajectory_done(d);
  }
  bool stop_requested() const noexcept override {
    return inner_ != nullptr && inner_->stop_requested();
  }
  void cell_progress(std::uint32_t cell, std::uint64_t done,
                     std::uint64_t total) override {
    if (inner_ != nullptr) inner_->cell_progress(cell, done, total);
    if (progress_cb_) progress_cb_(cell, done, total);
  }
  void cell_done(std::uint32_t cell) override {
    if (inner_ != nullptr) inner_->cell_done(cell);
    if (done_cb_) done_cb_(cell);
  }

 private:
  event_sink* inner_;
  const std::function<void(std::uint32_t, std::uint64_t, std::uint64_t)>&
      progress_cb_;
  const std::function<void(std::uint32_t)>& done_cb_;
};

/// Shared completion bookkeeping: report counters, session-sink events,
/// and the cell's drained-alignment check when its last trajectory retires.
class campaign_state {
 public:
  campaign_state(const sim_config& cfg, sweep::report& rep,
                 std::vector<cell_reducer>& reducers, event_sink& sink)
      : cfg_(&cfg),
        rep_(&rep),
        reducers_(&reducers),
        sink_(&sink),
        done_in_cell_(rep.cells.size(), 0) {}

  /// `done` carries the per-cell trajectory id.
  void lane_done(std::uint32_t cell, task_done done) {
    // Session-sink ids are campaign-global (cell-major) so subscribers can
    // tell cells apart; the per-cell id is trajectory % N.
    done.trajectory_id +=
        static_cast<std::uint64_t>(cell) * cfg_->num_trajectories;
    sink_->trajectory_done(done);

    sweep::cell_report& cr = rep_->cells[cell];
    ++cr.trajectories;
    cr.steps += done.steps;
    ++done_in_cell_[cell];
    sink_->cell_progress(cell, done_in_cell_[cell], cfg_->num_trajectories);
    if (done_in_cell_[cell] == cfg_->num_trajectories) {
      // Every sample of the cell is already ingested (a lane retires only
      // after its final quantum's samples were gathered), so every cut was
      // folded and the completion event carries final data.
      (*reducers_)[cell].finish();
      sink_->cell_done(cell);
    }
  }

 private:
  const sim_config* cfg_;
  sweep::report* rep_;
  std::vector<cell_reducer>* reducers_;
  event_sink* sink_;
  std::vector<std::uint64_t> done_in_cell_;
};

sweep::report run_campaign(model_ref model, const sim_config& cfg,
                           const multicore& mc, const sweep::plan& p,
                           event_sink& sink) {
  model.compile();  // the campaign's ONE compile
  const std::vector<sweep::cell_decl> cells = p.cells();

  std::vector<std::shared_ptr<const cwc::compiled_model>> overlays;
  overlays.reserve(cells.size());
  try {
    for (const sweep::cell_decl& c : cells)
      overlays.push_back(
          cwc::compiled_model::overlay(model.compiled, c.overrides));
  } catch (const cwc::overlay_error& e) {
    throw config_error("sweep.overlay", e.what());
  }

  sweep::report rep;
  rep.observables = observable_names(*model.compiled);
  rep.cells.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    rep.cells[i].overrides = cells[i].overrides;

  const std::size_t obs = model.num_observables();
  std::vector<cell_reducer> reducers;
  reducers.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    reducers.emplace_back(cfg, obs, rep.cells[i]);
  campaign_state state(cfg, rep, reducers, sink);

  // The campaign's global cell-major lane list. With batch lanes, groups
  // slice it across cell boundaries, so lanes of different parameter cells
  // share strips and shape-family pools and the wide kernels vectorize
  // across the sweep. Each round is gathered in lane order on this thread
  // while the pool steps the next, so the reductions see the same stream
  // on every worker count and width.
  lane_executor lanes(
      overlays, cfg,
      lane_executor::ensemble(cfg.num_trajectories,
                              static_cast<std::uint32_t>(overlays.size())),
      mc.batch_width, cfg.sim_workers);
  rep.stopped =
      sink.stop_requested() ||
      !lanes.run(
          [&](const lane_executor::lane_quantum& q) {
            for (const cwc::trajectory_sample& s : q.samples)
              reducers[q.id.cell].ingest(q.id.trajectory_id, s);
          },
          [&](std::uint32_t cell, const task_done& d) {
            state.lane_done(cell, d);
          },
          [&] { return !sink.stop_requested(); });
  return rep;
}

}  // namespace

void validate(const sim_config& cfg, const backend& b, const sweep::plan& p) {
  validate(cfg, b);
  if (!std::holds_alternative<multicore>(b)) {
    throw config_error("backend",
                       "sweep campaigns run on the multicore backend");
  }
  for (std::size_t i = 0; i < p.axes().size(); ++i) {
    const sweep::axis_decl& a = p.axes()[i];
    if (a.rate.empty())
      throw config_error("sweep.axis", "axis with an empty rate name");
    if (a.values.empty())
      throw config_error("sweep.axis",
                         "axis '" + a.rate + "' has no values");
    for (std::size_t j = 0; j < i; ++j) {
      if (p.axes()[j].rate == a.rate)
        throw config_error("sweep.axis", "duplicate axis '" + a.rate + "'");
    }
  }
  if (p.num_cells() == 0) {
    throw config_error("sweep.plan",
                       "plan has no parameter cells (add an axis or a cell)");
  }
  // Duplicate cells would silently double a parameter point's weight in
  // the campaign; compare override lists canonicalized by rate name.
  std::vector<std::vector<sweep::rate_override>> canon;
  canon.reserve(p.num_cells());
  for (const sweep::cell_decl& c : p.cells()) {
    canon.push_back(c.overrides);
    std::sort(canon.back().begin(), canon.back().end());
  }
  std::sort(canon.begin(), canon.end());
  if (std::adjacent_find(canon.begin(), canon.end()) != canon.end())
    throw config_error("sweep.cells", "duplicate parameter cell");
}

sweep::report sweep_builder::run() const {
  util::expects(model_.tree != nullptr || model_.flat != nullptr,
                "sweep_builder requires a model");
  validate(cfg_, backend_, plan_);
  const multicore* mc = std::get_if<multicore>(&backend_);
  forwarding_sink fs(sink_, progress_cb_, done_cb_);
  return run_campaign(model_, cfg_, *mc, plan_, fs);
}

sweep::report run_sweep(const cwc::model& m, const sim_config& cfg,
                        const sweep::plan& p, const backend& b) {
  return sweep_builder().model(m).config(cfg).backend(b).plan(p).run();
}

sweep::report run_sweep(const cwc::reaction_network& n, const sim_config& cfg,
                        const sweep::plan& p, const backend& b) {
  return sweep_builder().model(n).config(cfg).backend(b).plan(p).run();
}

}  // namespace cwcsim
