#include "replay.hpp"

#include <optional>

#include "core/alignment.hpp"
#include "core/quantum.hpp"
#include "cwc/batch/batch_engine.hpp"
#include "dist/wire.hpp"
#include "models/models.hpp"
#include "svc/proto.hpp"
#include "util/check.hpp"

namespace perfbench {

void replay_counts::add(const replay_counts& o) {
  ssa_steps += o.ssa_steps;
  samples += o.samples;
  quanta += o.quanta;
  cuts += o.cuts;
  shape_classes = std::max(shape_classes, o.shape_classes);
  dist_bytes += o.dist_bytes;
  proto_frames += o.proto_frames;
}

namespace {

/// The analysis stages of one campaign, fed sample by sample.
class analysis {
 public:
  analysis(const cwcsim::sim_config& cfg, std::size_t observables,
           const replay_options& opt, replay_counts& counts,
           const std::function<void(cwcsim::window_summary&&)>& on_window)
      : cfg_(cfg),
        opt_(opt),
        counts_(counts),
        on_window_(on_window),
        assembler_(cfg, observables),
        builder_(cfg.window_size, cfg.window_slide) {}

  void ingest(std::uint64_t trajectory,
              const std::vector<cwc::trajectory_sample>& samples) {
    if (samples.empty()) return;
    const scoped_span span(opt_.spans, "core.ingest", opt_.parent, trajectory);
    for (const auto& s : samples)
      assembler_.ingest(trajectory, s, [&](stats::trajectory_cut&& cut) {
        std::vector<stats::trajectory_window> done;
        {
          const scoped_span push(opt_.spans, "stats.window_push", span.id(),
                                 cut.sample_index);
          done = builder_.push(std::move(cut));
        }
        for (auto& w : done) summarize(std::move(w), span.id());
      });
  }

  void finish() {
    for (auto& w : builder_.flush()) summarize(std::move(w), opt_.parent);
    util::ensures(assembler_.drained(), "replay alignment buffer not drained");
  }

 private:
  void summarize(stats::trajectory_window&& w, std::int64_t parent) {
    cwcsim::window_summary s;
    s.first_sample = w.first_sample;
    for (const auto& cut : w.cuts) {
      const scoped_span span(opt_.spans, "stats.summarize_cut", parent, cut.sample_index);
      s.cuts.push_back(stats::summarize_cut(cut, cfg_.kmeans_k, cfg_.seed));
    }
    counts_.cuts += s.cuts.size();
    if (opt_.codecs) {
      const scoped_span span(opt_.spans, "svc.proto", parent, s.first_sample);
      const auto frame = svc::encode_window(counts_.proto_frames, s);
      dist::archive_reader r(frame);
      util::ensures(svc::read_frame_header(r) == svc::svc_tag::window,
                    "window frame tag");
      const auto back = svc::read_window(r);
      util::ensures(back.window.cuts.size() == s.cuts.size(),
                    "window frame round trip");
      ++counts_.proto_frames;
    }
    on_window_(std::move(s));
  }

  const cwcsim::sim_config& cfg_;
  const replay_options& opt_;
  replay_counts& counts_;
  const std::function<void(cwcsim::window_summary&&)>& on_window_;
  cwcsim::cut_assembler assembler_;
  stats::sliding_window_builder builder_;
};

void replay_scalar(const std::shared_ptr<const cwc::compiled_model>& cm,
                   const cwcsim::sim_config& cfg, const replay_options& opt,
                   replay_counts& counts, std::optional<analysis>& an) {
  const std::uint64_t n = cfg.num_trajectories;
  std::vector<cwcsim::any_engine> engines;
  engines.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) engines.emplace_back(cm, cfg.seed, i);
  std::vector<std::uint8_t> live(n, 1);
  std::uint64_t remaining = n;
  // Quantum-major, like the farm's feedback loop: every live trajectory
  // advances one quantum before any advances the next.
  for (std::uint64_t q = 0; remaining > 0; ++q) {
    for (std::uint64_t i = 0; i < n; ++i) {
      if (live[i] == 0) continue;
      cwcsim::quantum_outcome out;
      {
        const scoped_span span(opt.spans, "cwc.advance_one_quantum", opt.parent, i);
        out = cwcsim::advance_one_quantum(engines[i], cfg, i, q);
      }
      counts.ssa_steps += out.record.ssa_steps;
      counts.samples += out.batch.samples.size();
      ++counts.quanta;
      if (opt.codecs) {
        const scoped_span span(opt.spans, "dist.codec", opt.parent, i);
        dist::quantum_result r;
        r.trajectory_id = i;
        r.quantum_index = q;
        r.time = engines[i].time();
        r.steps = engines[i].steps();
        r.finished = out.finished;
        r.samples = out.batch.samples;
        const auto bytes = dist::encode_quantum_result(r);
        const auto back = dist::decode_quantum_result(bytes);
        util::ensures(back.samples.size() == r.samples.size(),
                      "quantum_result round trip");
        counts.dist_bytes += static_cast<double>(bytes.size());
      }
      if (an) an->ingest(i, out.batch.samples);
      if (out.finished) {
        live[i] = 0;
        --remaining;
      }
    }
  }
}

void replay_batch(const std::shared_ptr<const cwc::compiled_model>& cm,
                  const cwcsim::sim_config& cfg, const replay_options& opt,
                  replay_counts& counts, std::optional<analysis>& an) {
  util::expects(cwc::batch::batch_engine::supports(*cm),
                "batch replay of an unbatchable model");
  struct group {
    std::uint64_t first;
    std::unique_ptr<cwc::batch::batch_engine> eng;
    std::vector<std::vector<cwc::trajectory_sample>> out;
  };
  std::vector<group> groups;
  for (std::uint64_t first = 0; first < cfg.num_trajectories; first += kBatchWidth) {
    const auto w = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBatchWidth, cfg.num_trajectories - first));
    groups.push_back({first, std::make_unique<cwc::batch::batch_engine>(
                                 cm, cfg.seed, first, w),
                      {}});
  }
  std::vector<std::uint64_t> before;
  bool any_live = true;
  while (any_live) {
    any_live = false;
    for (group& g : groups) {
      const std::size_t w = g.eng->width();
      std::size_t live = 0;
      before.assign(w, 0);
      for (std::size_t i = 0; i < w; ++i) {
        before[i] = g.eng->steps(i);
        if (g.eng->time(i) < cfg.t_end) ++live;
      }
      if (live == 0) continue;
      for (auto& o : g.out) o.clear();
      {
        const scoped_span span(opt.spans, "cwc.step_quantum", opt.parent, g.first);
        g.eng->step_quantum(cfg.quantum, cfg.t_end, cfg.sample_period, g.out);
      }
      counts.quanta += live;
      for (std::size_t i = 0; i < w; ++i) {
        counts.ssa_steps += g.eng->steps(i) - before[i];
        counts.samples += g.out[i].size();
        if (an) an->ingest(g.first + i, g.out[i]);
        if (g.eng->time(i) < cfg.t_end) any_live = true;
      }
      counts.shape_classes = std::max(counts.shape_classes,
                                      g.eng->num_shape_classes());
    }
  }
}

}  // namespace

replay_counts replay(const std::shared_ptr<const cwc::compiled_model>& cm,
                     const cwcsim::sim_config& cfg, const replay_options& opt,
                     const std::function<void(cwcsim::window_summary&&)>& on_window) {
  replay_counts counts;
  std::optional<analysis> an;
  if (opt.analyze) an.emplace(cfg, cm->num_observables(), opt, counts, on_window);
  if (opt.batch)
    replay_batch(cm, cfg, opt, counts, an);
  else
    replay_scalar(cm, cfg, opt, counts, an);
  if (an) an->finish();
  return counts;
}

std::uint64_t reference_digest(const cwc::model& m, const cwcsim::sim_config& cfg) {
  const auto cm = cwc::compiled_model::compile(m);
  std::vector<cwcsim::window_summary> windows;
  replay_options opt;
  opt.batch = cwc::batch::batch_engine::supports(*cm);
  replay(cm, cfg, opt,
         [&](cwcsim::window_summary&& s) { windows.push_back(std::move(s)); });
  return window_digest(windows);
}

std::uint64_t replay_sweep(const sweep_spec& s, const replay_options& opt,
                           replay_counts& counts) {
  const auto net = models::make_schlogl({});
  const auto base = cwc::compiled_model::compile(net);
  const auto cells = s.plan().cells();
  sweep_digest_builder digest;
  for (std::uint32_t c = 0; c < cells.size(); ++c) {
    std::shared_ptr<const cwc::compiled_model> cm;
    {
      const scoped_span span(opt.spans, "sweep.overlay", opt.parent, c);
      cm = cwc::compiled_model::overlay(base, cells[c].overrides);
    }
    counts.add(replay(cm, s.cfg, opt, [&](cwcsim::window_summary&& w) {
      for (const auto& cut : w.cuts) digest.add_cut(cut);
    }));
    digest.end_cell();
  }
  return digest.value();
}

}  // namespace perfbench
