// The benchmark's workloads and its two kinds of run.
//
// A workload fixes the model, its size, the backends it runs on and the
// thread budget; the --seed argument only derives the simulation seed, so
// one seed always yields the same inputs and the same output digests.
//
//   neurospora_ensemble  the paper's model on multicore{} (farm),
//                        multicore{32} (batched), distributed (elastic)
//                        and gpu{...,32}: engine stepping dominates.
//   cdemo_dense          compartment_demo sampled densely with four
//                        observables on the same four backends: alignment,
//                        windows and summaries dominate.
//   schlogl_sweep        the bistable flat Schlogl model over an inflow x
//                        outflow grid through sweep_builder on multicore{}.
//   svc_mixed_tenants    one run_server under a closed loop of four client
//                        threads: three Neurospora tenants sharing one
//                        model fingerprint, one compartment_demo tenant.
//
// A timed run (tracing off) gives the end-to-end metrics; a traced run
// re-runs the sessions with spans and replays the workload layer by layer
// through each module's public functions to give the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cwcsim.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

/// Simulation threads (and run-server pool threads) on every backend.
inline constexpr unsigned kWorkers = 3;
/// Load-generator threads (one connection each) of the svc workload.
inline constexpr unsigned kClients = 4;
/// Lanes per batch engine on the batched and gpu backends.
inline constexpr std::size_t kBatchWidth = 32;

struct named_backend {
  std::string name;  ///< farm | batched | dist | gpu
  cwcsim::backend backend;
};

/// One model + sim_config, as a tenant or an ensemble campaign runs it.
struct campaign {
  enum class model_kind { neurospora, cdemo };
  model_kind kind = model_kind::neurospora;
  cwcsim::sim_config cfg;
};

/// Build the model a campaign names (what users pay per process).
cwc::model build_model(campaign::model_kind kind);

struct sweep_spec {
  cwcsim::sim_config cfg;  ///< cfg.num_trajectories is N per cell
  std::vector<double> inflow;
  std::vector<double> outflow;
  cwcsim::sweep::plan plan() const;
};

struct workload {
  enum class kind { ensemble, sweep, svc };
  std::string name;
  kind type = kind::ensemble;
  campaign ensemble;                   ///< kind::ensemble
  std::vector<named_backend> backends; ///< kind::ensemble
  sweep_spec sweep;                    ///< kind::sweep
  std::vector<campaign> tenants;       ///< kind::svc, one per client thread
};

/// The named workload with inputs derived from `seed`; throws
/// std::invalid_argument for an unknown name.
workload make_workload(const std::string& name, std::uint64_t seed);
std::vector<std::string> workload_names();

/// The last line a run prints, before JSON encoding.
struct run_result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// (name, value, unit) in declaration order.
  std::vector<std::tuple<std::string, double, std::string>> metrics;

  void metric(std::string name, double value, std::string unit) {
    metrics.emplace_back(std::move(name), value, std::move(unit));
  }
  /// Record one operation's outcome; `why` is printed to stderr on failure.
  void op(bool ok, const std::string& why);
};

/// Timed run (tracing off): the end-to-end metrics.
run_result run_timed(const workload& w, double seconds);

/// Traced run: sessions with spans plus the layer replay; the per-layer
/// metrics. The Chrome trace_event file is written to `trace_path`.
run_result run_traced(const workload& w, double seconds,
                      const std::string& trace_path);

}  // namespace perfbench
