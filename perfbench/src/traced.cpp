// The traced run: (a) the workload's sessions again, one round untraced
// and one with a span around open(), wait() and every callback, read
// together with the reports and server counters; (b) the layer replay on
// this thread with a span around every layer call. Per-layer metrics a
// workload does not exercise are reported as 0.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "dist/model_codec.hpp"
#include "measure.hpp"
#include "models/models.hpp"
#include "replay.hpp"
#include "svc_load.hpp"
#include "util/check.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Every per-layer metric, in output order; BENCHMARK.json lists the same.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"cwc.compile_s", "s"},
    {"cwc.ssa_steps", "count"},
    {"cwc.samples", "count"},
    {"cwc.quanta", "count"},
    {"cwc.scalar_ns_per_step", "ns"},
    {"cwc.batch_ns_per_lane_step", "ns"},
    {"cwc.flat_ns_per_step", "ns"},
    {"cwc.batch_shape_classes", "count"},
    {"core.align_ns_per_sample", "ns"},
    {"core.analysis_share.batched", "ratio"},
    {"core.analysis_share.dist", "ratio"},
    {"core.analysis_share.gpu", "ratio"},
    {"core.traj_per_s.farm", "1/s"},
    {"core.traj_per_s.batched", "1/s"},
    {"core.traj_per_s.dist", "1/s"},
    {"core.traj_per_s.gpu", "1/s"},
    {"core.first_window_s.farm", "s"},
    {"core.first_window_s.batched", "s"},
    {"core.first_window_s.dist", "s"},
    {"core.first_window_s.gpu", "s"},
    {"core.open_s.farm", "s"},
    {"core.open_s.batched", "s"},
    {"core.open_s.dist", "s"},
    {"core.open_s.gpu", "s"},
    {"core.peak_rss_mb.farm", "MB"},
    {"core.peak_rss_mb.batched", "MB"},
    {"core.peak_rss_mb.dist", "MB"},
    {"core.peak_rss_mb.gpu", "MB"},
    {"core.completion_spread_s.farm", "s"},
    {"core.completion_spread_s.batched", "s"},
    {"core.completion_spread_s.dist", "s"},
    {"core.completion_spread_s.gpu", "s"},
    {"stats.summarize_ns_per_cut", "ns"},
    {"stats.window_ns_per_cut", "ns"},
    {"stats.cuts", "count"},
    {"ff.farm_busy_share", "ratio"},
    {"dist.messages", "count"},
    {"dist.bytes", "B"},
    {"dist.reissued", "count"},
    {"dist.duplicate_quanta", "count"},
    {"dist.codec_ns_per_byte", "ns"},
    {"simt.kernels", "count"},
    {"svc.sessions", "count"},
    {"svc.sessions_failed", "count"},
    {"svc.sessions_shed", "count"},
    {"svc.useful_quanta_ratio", "ratio"},
    {"svc.quanta_retried", "count"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.pool_busy_share", "ratio"},
    {"svc.first_window_p50_s", "s"},
    {"svc.session_p90_s", "s"},
    {"svc.frames_per_session", "count"},
    {"svc.bytes_per_session", "B"},
    {"svc.proto_ns_per_frame", "ns"},
    {"sweep.overlay_s_per_cell", "s"},
    {"sweep.cells", "count"},
    {"sweep.cell_done_spread_s", "s"},
    {"sweep.farm_busy_share", "ratio"},
    {"trace.overhead_share", "ratio"},
};

using values = std::map<std::string, double>;

double per(double total, double count) { return count > 0 ? total / count : 0.0; }

/// Median wall time of five compiles of `m`, each under a span.
template <typename Model>
double compile_seconds(const Model& m, tracer& t) {
  std::vector<double> s;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = clock::now();
    const scoped_span span(&t, "cwc.compile", tracer::kNoParent, 0);
    (void)cwc::compiled_model::compile(m);
    s.push_back(seconds_since(t0));
  }
  return median(s);
}

/// Work counts and per-unit layer costs of a replay, from its spans.
void replay_metrics(const replay_counts& c, const tracer& t, values& v) {
  const auto total = t.total_by_name();
  const auto self = t.self_by_name();
  const auto get = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  v["cwc.ssa_steps"] = static_cast<double>(c.ssa_steps);
  v["cwc.samples"] = static_cast<double>(c.samples);
  v["cwc.quanta"] = static_cast<double>(c.quanta);
  v["stats.cuts"] = static_cast<double>(c.cuts);
  v["core.align_ns_per_sample"] =
      per(get(self, "core.ingest") * 1e9, static_cast<double>(c.samples));
  v["stats.window_ns_per_cut"] =
      per(get(self, "stats.window_push") * 1e9, static_cast<double>(c.cuts));
  v["stats.summarize_ns_per_cut"] =
      per(get(total, "stats.summarize_cut") * 1e9, static_cast<double>(c.cuts));
  v["dist.codec_ns_per_byte"] = per(get(total, "dist.codec") * 1e9, c.dist_bytes);
  v["svc.proto_ns_per_frame"] = per(
      (get(total, "svc.proto") + get(total, "svc.proto_open")) * 1e9,
      static_cast<double>(c.proto_frames));
}

/// Seconds the replay spent in the analysis stages (core + stats).
double analysis_seconds(const tracer& t) {
  const auto self = t.self_by_name();
  double s = 0.0;
  for (const char* k : {"core.ingest", "stats.window_push", "stats.summarize_cut"})
    if (const auto it = self.find(k); it != self.end()) s += it->second;
  return s;
}

double span_total(const tracer& t, const char* name) {
  const auto m = t.total_by_name();
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

// --------------------------------------------------------------- ensembles

struct backend_run {
  bool ok = false;
  double open_s = 0.0, wall = 0.0, first = 0.0, spread = 0.0, rss_mb = 0.0;
  cwcsim::run_report report;
};

/// One session per backend; spans when `t` is set.
std::vector<backend_run> session_round(const workload& w, tracer* t,
                                       std::uint64_t ref, run_result& r) {
  const cwcsim::sim_config& cfg = w.ensemble.cfg;
  const cwc::model model = build_model(w.ensemble.kind);
  std::vector<backend_run> out(w.backends.size());
  for (std::size_t b = 0; b < w.backends.size(); ++b) {
    backend_run& br = out[b];
    reset_peak_rss();
    const auto root = t ? t->begin("session", tracer::kNoParent, b) : 0;
    auto t0 = clock::now();
    const auto open_span = t ? t->begin("session.open", root, b) : 0;
    auto s = cwcsim::run_builder()
                 .model(model)
                 .config(cfg)
                 .backend(w.backends[b].backend)
                 .open();
    if (t) t->end(open_span);
    br.open_s = seconds_since(t0);
    std::int64_t wait_span = tracer::kNoParent;
    double first = -1.0, first_done = 0.0, last_done = 0.0;
    std::uint64_t done = 0;
    s.on_window([&](const cwcsim::window_summary& win) {
      if (first < 0.0) first = seconds_since(t0);
      if (t) t->end(t->begin("session.on_window", wait_span, win.first_sample));
    });
    s.on_trajectory_done([&](const cwcsim::task_done& d) {
      last_done = seconds_since(t0);
      if (done++ == 0) first_done = last_done;
      if (t) t->end(t->begin("session.on_trajectory_done", wait_span, d.trajectory_id));
    });
    if (t) wait_span = t->begin("session.wait", root, b);
    t0 = clock::now();
    bool threw = false;
    try {
      br.report = s.wait();
    } catch (const std::exception& e) {
      r.op(false, w.backends[b].name + ": " + e.what());
      threw = true;
    }
    br.wall = seconds_since(t0);
    if (t) {
      t->end(wait_span);
      t->end(root);
    }
    if (threw) continue;
    br.rss_mb = peak_rss_mb();
    br.first = first;
    br.spread = last_done - first_done;
    br.ok = !br.report.stopped && done == cfg.num_trajectories &&
            br.report.result.completions.size() == cfg.num_trajectories &&
            window_digest(br.report.result.windows) == ref;
    r.op(br.ok, w.backends[b].name + " traced session: incomplete or digest "
                                     "differs from the replay");
  }
  return out;
}

void traced_ensemble(const workload& w, tracer& t, run_result& r, values& v) {
  const cwcsim::sim_config& cfg = w.ensemble.cfg;
  const cwc::model model = build_model(w.ensemble.kind);

  // (b) first, so the sessions are checked against the replay's digest.
  const auto root = t.begin("replay", tracer::kNoParent, 0);
  v["cwc.compile_s"] = compile_seconds(model, t);
  const auto cm = cwc::compiled_model::compile(model);
  std::vector<cwcsim::window_summary> windows;
  replay_options opt;
  opt.codecs = true;
  opt.spans = &t;
  opt.parent = root;
  const replay_counts scalar = replay(
      cm, cfg, opt, [&](cwcsim::window_summary&& s) { windows.push_back(std::move(s)); });
  const std::uint64_t ref = window_digest(windows);
  replay_metrics(scalar, t, v);
  const double analysis_s = analysis_seconds(t);
  const double scalar_s = span_total(t, "cwc.advance_one_quantum");
  v["cwc.scalar_ns_per_step"] = per(scalar_s * 1e9, static_cast<double>(scalar.ssa_steps));

  opt.batch = true;
  opt.analyze = false;
  opt.codecs = false;
  const replay_counts batch = replay(cm, cfg, opt, [](cwcsim::window_summary&&) {});
  t.end(root);
  const double batch_s = span_total(t, "cwc.step_quantum");
  v["cwc.batch_ns_per_lane_step"] = per(batch_s * 1e9, static_cast<double>(batch.ssa_steps));
  v["cwc.batch_shape_classes"] = static_cast<double>(batch.shape_classes);
  r.op(batch.ssa_steps == scalar.ssa_steps, "batch replay steps differ from scalar");
  std::printf("digest %s replay: %016" PRIx64 "\n", w.name.c_str(), ref);

  // (a) sessions: one untraced round for the overhead, then the traced one.
  const auto plain = session_round(w, nullptr, ref, r);
  const auto traced = session_round(w, &t, ref, r);
  double plain_wall = 0.0, traced_wall = 0.0;
  for (std::size_t b = 0; b < w.backends.size(); ++b) {
    const std::string& name = w.backends[b].name;
    const backend_run& br = traced[b];
    plain_wall += plain[b].wall;
    traced_wall += br.wall;
    v["core.traj_per_s." + name] = per(static_cast<double>(cfg.num_trajectories), br.wall);
    v["core.first_window_s." + name] = br.first;
    v["core.open_s." + name] = br.open_s;
    v["core.peak_rss_mb." + name] = br.rss_mb;
    v["core.completion_spread_s." + name] = br.spread;
    if (name != "farm") v["core.analysis_share." + name] = per(analysis_s, plain[b].wall);
    if (name == "farm")
      v["ff.farm_busy_share"] = per(scalar_s, kWorkers * plain[b].wall);
    if (const auto& net = br.report.network) {
      v["dist.messages"] = static_cast<double>(net->messages);
      v["dist.bytes"] = net->bytes;
      v["dist.reissued"] = static_cast<double>(net->reissued);
      v["dist.duplicate_quanta"] = static_cast<double>(net->duplicate_quanta);
    }
    if (const auto& dev = br.report.device)
      v["simt.kernels"] = static_cast<double>(dev->kernels);
  }
  v["trace.overhead_share"] = per(traced_wall, plain_wall) - 1.0;
  std::printf("dominant layer of traj_per_s.batched on %s: %s "
              "(cwc step_quantum %.3f s, core+stats analysis %.3f s)\n",
              w.name.c_str(), batch_s >= analysis_s ? "cwc" : "core+stats",
              batch_s, analysis_s);
}

// ------------------------------------------------------------------- sweep

void traced_sweep(const workload& w, tracer& t, run_result& r, values& v) {
  const sweep_spec& s = w.sweep;
  const auto net = models::make_schlogl({});
  const auto plan = s.plan();
  const auto cells = plan.cells();

  // (b) replay: one compile, an overlay per cell, flat engines per cell.
  const auto root = t.begin("replay", tracer::kNoParent, 0);
  v["cwc.compile_s"] = compile_seconds(net, t);
  replay_counts counts;
  replay_options opt;
  opt.spans = &t;
  opt.parent = root;
  const std::uint64_t ref = replay_sweep(s, opt, counts);
  t.end(root);
  replay_metrics(counts, t, v);
  const double flat_s = span_total(t, "cwc.advance_one_quantum");
  v["cwc.flat_ns_per_step"] = per(flat_s * 1e9, static_cast<double>(counts.ssa_steps));
  v["sweep.overlay_s_per_cell"] =
      per(span_total(t, "sweep.overlay"), static_cast<double>(cells.size()));
  v["sweep.cells"] = static_cast<double>(cells.size());
  std::printf("digest %s replay: %016" PRIx64 "\n", w.name.c_str(), ref);

  // (a) one untraced campaign, then one with spans.
  double walls[2] = {0.0, 0.0};
  for (int traced = 0; traced < 2; ++traced) {
    tracer* const tt = traced != 0 ? &t : nullptr;
    const auto run_span = tt ? tt->begin("sweep.run", tracer::kNoParent, 0) : 0;
    double first = -1.0, last = 0.0;
    const auto t0 = clock::now();
    const auto rep = cwcsim::sweep_builder()
                         .model(net)
                         .config(s.cfg)
                         .backend(cwcsim::multicore{})
                         .plan(plan)
                         .on_cell_done([&](std::uint32_t cell) {
                           last = seconds_since(t0);
                           if (first < 0.0) first = last;
                           if (tt) tt->end(tt->begin("sweep.on_cell_done", run_span, cell));
                         })
                         .run();
    walls[traced] = seconds_since(t0);
    if (tt) tt->end(run_span);
    bool ok = !rep.stopped && rep.cells.size() == cells.size() &&
              sweep_digest(rep) == ref;
    for (const auto& c : rep.cells) ok = ok && c.trajectories == s.cfg.num_trajectories;
    r.op(ok, "traced sweep campaign: incomplete or digest differs from the replay");
    if (tt) v["sweep.cell_done_spread_s"] = last - first;
  }
  v["sweep.farm_busy_share"] = per(flat_s, kWorkers * walls[0]);
  v["trace.overhead_share"] = per(walls[1], walls[0]) - 1.0;
}

// --------------------------------------------------------------------- svc

/// Sessions each client runs in each of the two closed loops: 25 x 4 = 100
/// sessions, enough for a p90 with ten sessions beyond it.
constexpr std::size_t kTracedSessionsPerClient = 25;

void traced_svc(const workload& w, double seconds, tracer& t, run_result& r,
                values& v) {
  // (b) replay each distinct tenant campaign as the pool runs it: scalar
  // engines, then the session's analysis and window frames.
  const auto root = t.begin("replay", tracer::kNoParent, 0);
  replay_counts counts;
  std::vector<std::uint64_t> ref(w.tenants.size());
  std::vector<double> sim_s(w.tenants.size());
  for (std::size_t k = 0; k < w.tenants.size(); ++k) {
    const campaign& c = w.tenants[k];
    if (repeats_previous(w, k)) {
      ref[k] = ref[k - 1];
      sim_s[k] = sim_s[k - 1];
      continue;
    }
    const cwc::model model = build_model(c.kind);
    {
      const scoped_span span(&t, "svc.proto_open", root, k);
      svc::open_request rq;
      rq.cfg = c.cfg;
      rq.model_frame = dist::encode_model(cwcsim::model_ref{&model, nullptr, nullptr});
      (void)svc::encode_open(rq);
      (void)dist::model_fingerprint(rq.model_frame);
      ++counts.proto_frames;
    }
    const double before = span_total(t, "cwc.advance_one_quantum");
    std::vector<cwcsim::window_summary> windows;
    replay_options opt;
    opt.codecs = true;
    opt.spans = &t;
    opt.parent = root;
    counts.add(replay(cwc::compiled_model::compile(model), c.cfg, opt,
                      [&](cwcsim::window_summary&& s) { windows.push_back(std::move(s)); }));
    sim_s[k] = span_total(t, "cwc.advance_one_quantum") - before;
    ref[k] = window_digest(windows);
  }
  t.end(root);
  replay_metrics(counts, t, v);
  v["cwc.scalar_ns_per_step"] =
      per(span_total(t, "cwc.advance_one_quantum") * 1e9, static_cast<double>(counts.ssa_steps));

  // (a) an untraced closed loop, then a traced one, on one warm server.
  const auto server = start_server(w);
  double walls[2] = {0.0, 0.0};
  std::vector<session_record> sessions;
  svc::server_stats st0, st1;
  for (int traced = 0; traced < 2; ++traced) {
    st0 = server->stats();
    clock::time_point start;
    sessions = svc_closed_loop(*server, w, seconds, kTracedSessionsPerClient, start,
                               traced != 0 ? &t : nullptr);
    for (const auto& s : sessions)
      walls[traced] = std::max(walls[traced], seconds_between(start, s.done));
    st1 = server->stats();
  }
  std::vector<double> latency, first;
  double busy = 0.0, frames = 0.0, bytes = 0.0;
  for (const auto& s : sessions) {
    latency.push_back(s.latency);
    first.push_back(s.first);
    r.op(s.ok && s.digest == ref[s.tenant],
         "traced svc session: failed or digest differs from the replay");
    busy += sim_s[s.tenant];
    frames += static_cast<double>(s.messages);
    bytes += s.bytes;
  }
  r.op(st1.quanta_executed == st1.quanta_accepted + st1.quanta_discarded,
       "svc ledger: executed != accepted + discarded");
  const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  const double n = static_cast<double>(sessions.size());
  v["svc.sessions"] = d(st0.sessions_completed, st1.sessions_completed);
  v["svc.sessions_failed"] = d(st0.sessions_cancelled, st1.sessions_cancelled) +
                             d(st0.sessions_rejected, st1.sessions_rejected);
  v["svc.sessions_shed"] = d(st0.sessions_shed, st1.sessions_shed);
  v["svc.useful_quanta_ratio"] = per(d(st0.quanta_accepted, st1.quanta_accepted),
                                     d(st0.quanta_executed, st1.quanta_executed));
  v["svc.quanta_retried"] = d(st0.quanta_retried, st1.quanta_retried);
  const double hits = d(st0.cache.hits, st1.cache.hits);
  v["svc.cache_hit_ratio"] = per(hits, hits + d(st0.cache.compiles, st1.cache.compiles));
  v["svc.pool_busy_share"] = per(busy, kWorkers * walls[1]);
  v["svc.first_window_p50_s"] = sessions.empty() ? 0.0 : median(first);
  const timing lat = summarize(latency);
  v["svc.session_p90_s"] = lat.tail_p == 90.0 ? lat.tail : 0.0;
  v["svc.frames_per_session"] = per(frames, n);
  v["svc.bytes_per_session"] = per(bytes, n);
  v["trace.overhead_share"] = per(walls[1], walls[0]) - 1.0;
  std::printf("%s\n", describe("session_s.svc (traced)", lat, "s").c_str());
}

}  // namespace

run_result run_traced(const workload& w, double seconds,
                      const std::string& trace_path) {
  run_result r;
  tracer t;
  values v;
  switch (w.type) {
    case workload::kind::ensemble:
      traced_ensemble(w, t, r, v);
      break;
    case workload::kind::sweep:
      traced_sweep(w, t, r, v);
      break;
    case workload::kind::svc:
      traced_svc(w, seconds / 2.0, t, r, v);
      break;
  }
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = v.find(name);
    r.metric(name, it == v.end() ? 0.0 : it->second, unit);
    if (it != v.end()) v.erase(it);
  }
  util::ensures(v.empty(), "per-layer value without a declared metric");
  t.write_chrome(trace_path);
  std::printf("trace: %zu spans written to %s\n", t.size(), trace_path.c_str());
  return r;
}

}  // namespace perfbench
