// The distributed deployment of the CWC simulation-analysis pipeline
// (paper §IV-B, Fig. 2 bottom): a virtual cluster of multicore hosts, each
// running a farm of simulation engines, streaming serialized results to a
// master that aligns them on-line while cfg.stat_engines statistical
// engines summarise the cuts (cwcsim::analysis_stage).
// distributed_simulator is the cwcsim::distributed backend driver.
//
// Scheduling is ELASTIC (the paper's Fig. 6 cloud-hetero scenario): there
// is no start-of-run partition. The master keeps a work queue of
// trajectories that idle hosts PULL at their observed throughput over a
// per-host control channel; a grant names a trajectory and the checkpoint
// (acked quantum count) to resume it from, and the host runs it from there
// to t_end. Every executed quantum comes back as one atomic
// schema-versioned checkpoint frame (samples + progress high-water mark),
// the master tracks in-flight deadlines with net_channel::recv_for(),
// re-queues trajectories whose owner went quiet (straggler or dead host)
// to resume from their last checkpoint, and accepts each
// (trajectory, quantum) exactly once — late duplicates from superseded
// executions are discarded. Because every trajectory's engine is a pure
// function of (seed, trajectory_id), ANY host resumes ANY trajectory
// deterministically: it replays the already-acked quanta locally without
// emitting, then streams from the checkpoint onward, so a lost host costs
// only its in-flight quantum of results. The no-fault run is bit-exact
// with the shared-memory pipeline, regardless of how trajectories are
// re-sharded or how messages interleave on the network.
//
// Fault injection: net_params.drop_prob models seeded message loss on
// every data-plane link, and kill_host(h, at_time) makes host h vanish —
// mid-quantum, without a goodbye — once it has executed `at_time`
// simulated seconds. The elastic scheduler recovers from both; results
// stay bit-identical to the no-fault run.
//
// The model itself crosses the wire ONCE per run: the master encodes the
// model description into a versioned frame (dist/model_codec.hpp) and
// ships it to every host over the modeled network; each host decodes and
// compiles its own cwc::compiled_model, then builds every engine from that
// shared artifact. Models that cannot be encoded (custom rate laws) fall
// back to sharing the master's in-process artifact.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cwcsim.hpp"
#include "dist/net_channel.hpp"
#include "dist/wire.hpp"

namespace dist {

/// Fault-injection hook: host `host` dies abruptly (no close, no goodbye)
/// once it has executed `at_sim_time` simulated seconds of trajectory
/// time, losing whatever quantum was in flight.
struct kill_spec {
  unsigned host = 0;
  double at_sim_time = 0.0;
};

/// Deployment description: the base pipeline configuration plus the shape
/// of the virtual cluster, its network, and the scheduling/fault knobs
/// that the public cwcsim::distributed descriptor leaves out.
struct dist_config {
  cwcsim::sim_config base;
  unsigned num_hosts = 2;        ///< simulated multicore hosts
  unsigned workers_per_host = 2; ///< simulation engines per host
  net_params network;            ///< host <-> master link model

  // ---- elastic scheduling ------------------------------------------------
  /// Wall-clock deadline on per-trajectory progress: an in-flight
  /// trajectory that produced no accepted checkpoint for this long is
  /// re-queued for re-issue (straggler / dead host / lost frame).
  double reissue_after_s = 0.25;
  /// Master recv_for() slice between deadline scans.
  double master_tick_s = 0.02;
  /// Idle-worker wait for a grant before re-sending its work request
  /// (self-heals a lost request or grant).
  double worker_retry_s = 0.05;

  // ---- heterogeneity / fault injection ----------------------------------
  /// Relative per-host speed (1.0 = nominal; 0.25 = a 4x-slower host:
  /// every quantum takes 4x its measured wall time). Empty = homogeneous.
  std::vector<double> host_speed;
  /// Hosts that die mid-run (see kill_spec).
  std::vector<kill_spec> kills;
};

class distributed_simulator final : public cwcsim::backend_driver {
 public:
  distributed_simulator(const cwc::model& m, dist_config cfg);
  distributed_simulator(const cwc::reaction_network& n, dist_config cfg);
  distributed_simulator(cwcsim::model_ref model, dist_config cfg);

  const dist_config& config() const noexcept { return cfg_; }

  /// Fault-injection hook: schedule host `host` to die once it has
  /// executed `at_sim_time` simulated seconds. Call before run().
  distributed_simulator& kill_host(unsigned host, double at_sim_time);

  /// Execute the virtual cluster and return the master's report, with the
  /// window stream collected into result.windows.
  cwcsim::run_report run();

  const char* name() const noexcept override { return "distributed"; }

  /// Streaming form (the backend_driver contract): the master pushes each
  /// window summary and completion notice through `sink` as the on-line
  /// analysis emits it, honours sink.stop_requested() at quantum
  /// boundaries on every host, and fills `report` (result.windows
  /// excepted — the sink's owner collects the stream).
  void run(cwcsim::event_sink& sink, cwcsim::run_report& report) override;

 private:
  cwcsim::model_ref model_;
  dist_config cfg_;
};

}  // namespace dist
