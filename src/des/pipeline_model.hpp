// DES models of the CWC simulation-analysis pipeline on the paper's
// platforms. Each model replays a captured workload (real per-quantum SSA
// step counts) through the Fig. 2 architecture — on-demand farm dispatch,
// quantum feedback, trajectory alignment, sliding-window statistics farm —
// accounting for core contention, farm concurrency limits, network links,
// and virtualisation overheads.
#pragma once

#include <cstdint>
#include <vector>

#include "des/platforms.hpp"
#include "des/trace.hpp"

namespace des {

/// Farm dispatch policy under evaluation (paper relies on on-demand; the
/// ablation bench contrasts it with static round-robin).
enum class dispatch_policy { on_demand, round_robin };

struct farm_params {
  unsigned sim_workers = 4;
  unsigned stat_engines = 1;
  std::size_t window_size = 1;   ///< cuts per statistics job
  std::size_t window_slide = 1;  ///< new cuts per job; slide < size overlaps
  dispatch_policy policy = dispatch_policy::on_demand;
};

struct sim_outcome {
  double makespan_s = 0.0;
  double sim_busy_s = 0.0;    ///< total engine service time delivered
  double stat_busy_s = 0.0;   ///< total statistics service time delivered
  std::uint64_t cuts = 0;     ///< cuts completed by the aligner
  std::uint64_t stat_jobs = 0;
  std::uint64_t messages = 0; ///< network messages (cluster models)
  double comm_bytes = 0.0;
};

/// Shared-memory multicore run (paper Fig. 3 setting): one host, sim farm +
/// alignment + stat farm sharing the host's cores.
sim_outcome simulate_multicore(const workload& w, const calibration& cal,
                               const host_spec& host, const farm_params& farm);

struct cluster_params {
  std::vector<host_spec> hosts;  ///< simulation hosts (farm of pipelines)
  host_spec master;              ///< runs generation, alignment, statistics
  link_spec network;             ///< host <-> master interconnect
  unsigned sim_workers_per_host = 4;
  /// Per-host farm widths (heterogeneous clusters, paper Fig. 6 bottom);
  /// when non-empty it overrides sim_workers_per_host and must match
  /// hosts.size().
  std::vector<unsigned> workers_per_host;
  unsigned stat_engines = 4;
  std::size_t window_size = 1;
  std::size_t window_slide = 1;
};

/// Distributed run (paper Fig. 4-6 settings): hosts pull trajectories from
/// the master on demand, execute all their quanta locally with a local
/// on-demand farm, and stream serialized sample batches back over the
/// network; the master aligns and analyses.
sim_outcome simulate_cluster(const workload& w, const calibration& cal,
                             const cluster_params& cluster);

}  // namespace des
