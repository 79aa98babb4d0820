#include "workloads.hpp"

#include <cstdio>
#include <stdexcept>

#include "models/models.hpp"

namespace perfbench {

cwc::model build_model(campaign::model_kind kind) {
  return kind == campaign::model_kind::neurospora
             ? models::make_neurospora_cwc({})
             : models::make_compartment_demo({});
}

cwcsim::sweep::plan sweep_spec::plan() const {
  return cwcsim::sweep::plan().axis("inflow", inflow).axis("outflow", outflow);
}

void run_result::op(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

namespace {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

cwcsim::sim_config base_config(std::uint64_t seed) {
  cwcsim::sim_config cfg;
  cfg.seed = seed;
  cfg.sim_workers = kWorkers;
  cfg.stat_engines = 1;
  cfg.kmeans_k = 2;
  return cfg;
}

/// Neurospora at the paper's sampling: tau 0.5, quantum 10 tau, window 16.
campaign neurospora(std::uint64_t seed, std::uint64_t n, double t_end) {
  campaign c;
  c.kind = campaign::model_kind::neurospora;
  c.cfg = base_config(seed);
  c.cfg.num_trajectories = n;
  c.cfg.t_end = t_end;
  c.cfg.sample_period = 0.5;
  c.cfg.quantum = 5.0;
  c.cfg.window_size = 16;
  c.cfg.window_slide = 16;
  return c;
}

/// compartment_demo sampled densely (tau 0.05) over its four observables.
campaign cdemo(std::uint64_t seed, std::uint64_t n, double t_end) {
  campaign c;
  c.kind = campaign::model_kind::cdemo;
  c.cfg = base_config(seed);
  c.cfg.num_trajectories = n;
  c.cfg.t_end = t_end;
  c.cfg.sample_period = 0.05;
  c.cfg.quantum = 0.5;
  c.cfg.window_size = 16;
  c.cfg.window_slide = 16;
  return c;
}

std::vector<named_backend> four_backends() {
  cwcsim::distributed dist;
  dist.num_hosts = kWorkers;
  dist.workers_per_host = 1;
  cwcsim::gpu gpu;
  gpu.device = simt::devices::tesla_k40();
  gpu.batch_width = kBatchWidth;
  return {{"farm", cwcsim::multicore{}},
          {"batched", cwcsim::multicore{kBatchWidth}},
          {"dist", dist},
          {"gpu", gpu}};
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"neurospora_ensemble", "cdemo_dense", "schlogl_sweep",
          "svc_mixed_tenants"};
}

workload make_workload(const std::string& name, std::uint64_t seed) {
  workload w;
  w.name = name;
  if (name == "neurospora_ensemble") {
    w.type = workload::kind::ensemble;
    w.ensemble = neurospora(derive_seed(seed, 1), 128, 100.0);
    w.backends = four_backends();
  } else if (name == "cdemo_dense") {
    w.type = workload::kind::ensemble;
    w.ensemble = cdemo(derive_seed(seed, 2), 1024, 20.0);
    w.backends = four_backends();
  } else if (name == "schlogl_sweep") {
    w.type = workload::kind::sweep;
    cwcsim::sim_config& cfg = w.sweep.cfg;
    cfg = base_config(derive_seed(seed, 3));
    cfg.num_trajectories = 96;
    cfg.t_end = 10.0;
    cfg.sample_period = 0.5;
    cfg.quantum = 2.5;
    cfg.window_size = 8;
    cfg.window_slide = 8;
    // Around the bistable default (inflow 200, outflow 3.5).
    w.sweep.inflow = {160.0, 200.0, 240.0};
    w.sweep.outflow = {3.0, 3.5, 4.0};
  } else if (name == "svc_mixed_tenants") {
    w.type = workload::kind::svc;
    const campaign neuro = neurospora(derive_seed(seed, 4), 16, 48.0);
    w.tenants = {neuro, neuro, neuro, cdemo(derive_seed(seed, 5), 16, 5.0)};
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

}  // namespace perfbench
