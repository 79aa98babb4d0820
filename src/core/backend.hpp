// The pluggable-backend layer of the unified streaming run API.
//
// A *backend* is a value describing where the simulation-analysis pipeline
// executes: the shared-memory multicore farm, the distributed virtual
// cluster, or the SIMT/GPU execution model. All three are driven through
// the same backend_driver interface, which pushes window summaries and
// trajectory completions through an event_sink *as the gather stage emits
// them* — the streaming surface the paper's on-line analysis is about —
// instead of returning everything in one batch at the end.
//
// Layering note: the descriptor types below embed only header-only POD
// configuration (dist::net_params, simt::device_spec); the heavyweight
// driver implementations live in src/dist and src/simt and are linked in
// through the cwcsim umbrella library (see detail::make_*_driver).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/config.hpp"
#include "core/events.hpp"
#include "core/messages.hpp"
#include "core/result.hpp"
#include "dist/net_params.hpp"
#include "simt/device.hpp"
#include "util/check.hpp"

namespace svc {
class run_server;  // src/svc/run_server.hpp; linked via the umbrella lib
}

namespace cwcsim {

// --------------------------------------------------------------- diagnostics

/// Thrown by validate()/run_builder for a rejected configuration. Derives
/// from util::precondition_error so existing catch sites keep working;
/// field() names the offending knob for typed diagnostics.
class config_error : public util::precondition_error {
 public:
  config_error(std::string field, const std::string& what)
      : util::precondition_error("invalid config [" + field + "]: " + what),
        field_(std::move(field)) {}

  const std::string& field() const noexcept { return field_; }

 private:
  std::string field_;
};

// ---------------------------------------------------------------- descriptors

/// Run on this process's cores: the Fig. 2 farm of cfg.sim_workers
/// simulation engines and cfg.stat_engines statistical engines.
struct multicore {
  /// Opt-in ensemble batching: when > 1 (and the model is a tree model
  /// without custom rate laws), trajectories are sliced into SoA batch
  /// engines of this many lanes (cwc/batch/batch_engine.hpp) stepped
  /// quantum-lockstep by the lane executor's worker pool
  /// (core/lane_executor.hpp) instead of the per-engine farm.
  /// Sample paths, windows, and completions are bit-identical either way.
  /// 0 or 1, and any unbatchable model, keep the classic per-engine farm.
  std::size_t batch_width = 0;
};

/// A host of a distributed run that dies abruptly (no close, no goodbye)
/// once it has executed `at_sim_time` simulated seconds of trajectory
/// time, summed over the lanes it ran, losing whatever quantum was in
/// flight.
struct kill_spec {
  unsigned host = 0;
  double at_sim_time = 0.0;
};

/// Run on a virtual cluster (paper §IV-B): num_hosts multicore hosts of
/// workers_per_host workers pull leases — one quantum of one lane block of
/// up to 32 trajectories — from an elastic master, run each block on a
/// lane executor kept resident on the host (SoA batch lanes when the model
/// allows, scalar lanes otherwise; bit-identical either way), and stream
/// one serialized frame per (block, quantum) over the modeled network to
/// the master. It aligns them on-line and cfg.stat_engines statistical
/// engines summarise the cuts beside its receive loop.
struct distributed {
  unsigned num_hosts = 2;
  unsigned workers_per_host = 2;
  dist::net_params network{};
  /// Relative speed per host, in (0, 1]: 0.25 makes every lease on that
  /// host take 4x its measured wall time (the paper's Fig. 6 straggler).
  /// Empty = homogeneous; otherwise one entry per host.
  std::vector<double> host_speed{};
  /// Hosts that die mid-run. The master re-issues their in-flight work,
  /// and the results stay bit-identical to the fault-free run.
  std::vector<kill_spec> kills{};
};

/// Run the simulation farm as lockstep kernels on the SIMT device model
/// (paper §IV-C); the host aligns each kernel's samples and
/// cfg.stat_engines statistical engines summarise the cuts while later
/// kernels run.
struct gpu {
  simt::device_spec device{};
  /// Path-decoherence time of the divergence model (see simt::gpu_params).
  double coherence_time = 25.0;
  /// Lanes per batch engine (the paper's lockstep-kernel granularity):
  /// when > 1, each kernel advances SoA batches of this many same-model
  /// trajectories instead of scalar engines one by one. Bit-identical
  /// results; flat-network and custom-law models fall back to scalar
  /// lanes. 0 or 1 = scalar lanes.
  std::size_t batch_width = 0;
};

/// Run as one tenant of a shared svc::run_server: the model and config
/// ship to the server as schema-versioned frames over the dist transport,
/// quanta execute on the server's shared pool under deficit-weighted fair
/// scheduling, and windows stream back under credit-based backpressure —
/// bit-exact with a multicore run of the same (model, seed, config). The
/// server must outlive the run.
struct service {
  svc::run_server* server = nullptr;
  /// Fair-share weight under contention (relative quanta share),
  /// in [1/1024, 1024].
  double weight = 1.0;
  /// Stream-frame window bound (pending queue and in-flight replay
  /// buffer; 0 = server default).
  std::uint64_t window_credits = 0;
  /// Client-side downlink poll slice in seconds.
  double tick_s = 0.01;
  /// Liveness heartbeat cadence (uplink lease refresh + cumulative ack).
  double heartbeat_s = 0.25;
  /// Shed-open (retry_after) attempts before the driver gives up; also
  /// bounds the capped exponential backoff between attempts.
  unsigned open_retries = 5;
};

/// Where a run executes. Swap this one value to move the same model and
/// sim_config between deployments. run_report::backend carries the chosen
/// driver's name() after a run.
using backend = std::variant<multicore, distributed, gpu, service>;

// ----------------------------------------------------------------- validation

/// Reject a degenerate pipeline configuration with a typed config_error.
/// The single source of truth used by every backend and by run_builder.
void validate(const sim_config& cfg);

/// Base checks plus the backend-specific ones (cluster shape, device shape).
void validate(const sim_config& cfg, const backend& b);

// --------------------------------------------------------------------- report

/// The unified result of a run: the ordinary simulation_result plus
/// structured per-backend extras.
struct run_report {
  simulation_result result;
  std::string backend;   ///< name() of the driver that ran
  bool stopped = false;  ///< ended early via session::request_stop()

  struct network_stats {
    std::size_t messages = 0;  ///< messages received by the master
    double bytes = 0.0;        ///< serialized payload bytes shipped
    /// Compiled-model frames shipped master -> hosts, once per run (0 when
    /// the model fell back to in-process sharing).
    double model_bytes = 0.0;
    // ---- elastic-scheduling honesty counters ----
    /// Leases granted: one lane-block quantum each on dist, one
    /// trajectory quantum each on a service run.
    std::uint64_t grants = 0;
    /// Leases re-granted after their holder went silent past the deadline.
    std::uint64_t reissued = 0;
    /// Checkpoint frames (one block quantum each) the master discarded as
    /// duplicate/stale (late frames from superseded executions, or gap
    /// frames after a loss). Accepted quanta are exactly-once; this is the
    /// re-execution cost.
    std::uint64_t duplicate_quanta = 0;
    std::uint64_t messages_dropped = 0;  ///< lost to the seeded drop stream
    /// (trajectory, quantum) pairs ACCEPTED per host — observed
    /// throughput, honest under elasticity (re-issued and
    /// duplicate-discarded work never counts twice); they sum to the
    /// completions' quanta.
    std::vector<std::uint64_t> host_quanta;
  };
  struct device_stats {
    double device_seconds = 0.0;     ///< modeled kernel time (virtual)
    double divergence_factor = 1.0;  ///< warp-seconds / lane-seconds
    std::uint64_t kernels = 0;
  };
  std::optional<network_stats> network;  ///< distributed runs only
  std::optional<device_stats> device;    ///< gpu runs only
};

// --------------------------------------------------------------------- driver

/// The common contract every deployment implements. run() blocks until the
/// campaign completes (or stop is honoured), pushing windows and
/// completions through the sink as the gather stage emits them and filling
/// everything in `report` EXCEPT result.windows, which the sink's owner
/// collects from the stream.
class backend_driver {
 public:
  virtual ~backend_driver() = default;

  virtual const char* name() const noexcept = 0;
  virtual void run(event_sink& sink, run_report& report) = 0;
};

namespace detail {

// Factory per descriptor, the only way to build a driver. Implementations
// live with their runtimes (core/simulator.cpp, dist/distributed_backend.cpp,
// simt/gpu_backend.cpp, svc/service_backend.cpp) and resolve when linking
// the cwcsim umbrella library.
std::unique_ptr<backend_driver> make_multicore_driver(const model_ref& model,
                                                      const sim_config& cfg,
                                                      const multicore& b);
std::unique_ptr<backend_driver> make_distributed_driver(const model_ref& model,
                                                        const sim_config& cfg,
                                                        const distributed& b);
std::unique_ptr<backend_driver> make_gpu_driver(const model_ref& model,
                                                const sim_config& cfg,
                                                const gpu& b);
std::unique_ptr<backend_driver> make_service_driver(const model_ref& model,
                                                    const sim_config& cfg,
                                                    const service& b);

std::unique_ptr<backend_driver> make_driver(const model_ref& model,
                                            const sim_config& cfg,
                                            const backend& b);

}  // namespace detail
}  // namespace cwcsim
