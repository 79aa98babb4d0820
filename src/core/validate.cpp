// Centralized configuration validation — the single source of truth every
// backend (and run_builder) funnels through, replacing the per-backend
// ad-hoc checks. Lives in cwcsim_core so the dist/simt runtimes below the
// session facade can call it too.
#include <cmath>
#include <limits>

#include "core/backend.hpp"
#include "cwc/sampling.hpp"

namespace cwcsim {

void validate(const sim_config& cfg) {
  if (cfg.num_trajectories == 0)
    throw config_error("num_trajectories", "need at least one trajectory");
  if (cfg.sim_workers == 0)
    throw config_error("sim_workers", "need at least one simulation engine");
  if (cfg.stat_engines == 0)
    throw config_error("stat_engines", "need at least one statistical engine");
  if (!(cfg.sample_period > 0.0))
    throw config_error("sample_period", "sample period must be positive");
  if (!(cfg.quantum > 0.0))
    throw config_error("quantum", "quantum must be positive");
  if (!(cfg.t_end >= 0.0) || !std::isfinite(cfg.t_end))
    throw config_error("t_end", "simulation horizon must be finite and non-negative");
  // Each quantum ends at min(t + quantum, t_end). A quantum at least the gap
  // from t_end to the next larger double moves every clock value below
  // t_end (and keeps t_end / quantum < 2^53), as does one that reaches t_end
  // at once; a smaller one can round t + quantum back to t, and the run
  // never ends.
  const double gap =
      std::nextafter(cfg.t_end, std::numeric_limits<double>::infinity()) -
      cfg.t_end;
  if (cfg.quantum < gap && cfg.quantum < cfg.t_end)
    throw config_error("quantum", "quantum too small to advance the clock");
  // num_sample_points casts this ratio to uint64_t; 2^63 leaves headroom.
  if (!((cfg.t_end + cwc::sample_tolerance(cfg.t_end, cfg.sample_period)) /
            cfg.sample_period <
        0x1p63))
    throw config_error("sample_period", "too many sample points to index");
  if (cfg.window_size == 0)
    throw config_error("window_size", "windows must hold at least one cut");
  if (cfg.window_slide == 0)
    throw config_error("window_slide", "window slide must be positive");
  if (cfg.window_slide > cfg.window_size)
    throw config_error("window_slide",
                       "slide larger than the window size would skip cuts");
}

namespace {

/// Finite and not negative: a time, rate or factor a std::chrono cast or
/// a cost model can take.
bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

/// A fault probability: in [0, 1), never NaN.
bool probability(double p) { return p >= 0.0 && p < 1.0; }

}  // namespace

void validate(const sim_config& cfg, const backend& b) {
  validate(cfg);
  struct checker {
    const sim_config& cfg;
    void operator()(const multicore&) const {}
    void operator()(const distributed& d) const {
      if (d.num_hosts == 0)
        throw config_error("distributed.num_hosts", "need at least one host");
      if (d.workers_per_host == 0)
        throw config_error("distributed.workers_per_host",
                           "need at least one engine per host");
      if (d.num_hosts > cfg.num_trajectories)
        throw config_error("distributed.num_hosts",
                           "more hosts than trajectories");
      if (!finite_nonneg(d.network.latency_s))
        throw config_error("distributed.network.latency_s",
                           "network latency must be finite and non-negative");
      if (!finite_nonneg(d.network.bytes_per_s))
        throw config_error("distributed.network.bytes_per_s",
                           "network bandwidth must be finite and non-negative");
      if (!probability(d.network.drop_prob))
        throw config_error("distributed.network.drop_prob",
                           "drop probability must be in [0, 1)");
      if (!probability(d.network.dup_prob))
        throw config_error("distributed.network.dup_prob",
                           "duplication probability must be in [0, 1)");
      if (!finite_nonneg(d.network.jitter_s))
        throw config_error("distributed.network.jitter_s",
                           "jitter bound must be finite and non-negative");
      if (!d.host_speed.empty() && d.host_speed.size() != d.num_hosts)
        throw config_error("distributed.host_speed",
                           "name every host's speed, or none");
      for (const double s : d.host_speed)
        if (!(s > 0.0 && s <= 1.0))
          throw config_error("distributed.host_speed",
                             "host speeds must be in (0, 1]");
      for (const kill_spec& k : d.kills) {
        if (k.host >= d.num_hosts)
          throw config_error("distributed.kills", "kill names an unknown host");
        if (!(k.at_sim_time >= 0.0 && std::isfinite(k.at_sim_time)))
          throw config_error("distributed.kills",
                             "kill time must be finite and non-negative");
      }
    }
    void operator()(const service& s) const {
      if (s.server == nullptr)
        throw config_error("service.server", "service backend needs a server");
      if (!(s.weight >= 1.0 / 1024.0) || !(s.weight <= 1024.0))
        throw config_error("service.weight",
                           "weight must be in [1/1024, 1024]");
    }
    void operator()(const gpu& g) const {
      if (g.device.warp_size == 0)
        throw config_error("gpu.device.warp_size", "warps need lanes");
      if (g.device.concurrent_warps == 0)
        throw config_error("gpu.device.concurrent_warps",
                           "the device must issue at least one warp");
      if (!finite_nonneg(g.device.step_slowdown))
        throw config_error("gpu.device.step_slowdown",
                           "step slowdown must be finite and non-negative");
      if (!finite_nonneg(g.device.kernel_launch_s))
        throw config_error("gpu.device.kernel_launch_s",
                           "launch cost must be finite and non-negative");
      if (!finite_nonneg(g.device.unified_mem_bytes_s))
        throw config_error("gpu.device.unified_mem_bytes_s",
                           "memory bandwidth must be finite and non-negative");
    }
  };
  std::visit(checker{cfg}, b);
}

}  // namespace cwcsim
