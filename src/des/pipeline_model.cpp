#include "des/pipeline_model.hpp"

#include <algorithm>
#include <deque>
#include <memory>

#include "des/analysis_model.hpp"
#include "des/engine.hpp"
#include "des/resource.hpp"
#include "util/check.hpp"

namespace des {

namespace {

/// Serialized size of one task a host pulls from the master.
constexpr double kTaskBytes = 256.0;

}  // namespace

sim_outcome simulate_multicore(const workload& w, const calibration& cal,
                               const host_spec& host, const farm_params& farm) {
  util::expects(farm.sim_workers > 0 && farm.stat_engines > 0,
                "farm needs workers and stat engines");
  engine eng;
  resource cpu(eng, host.cores);
  sim_outcome out;
  analysis_model analysis(cpu, w, cal, host, farm.stat_engines,
                          farm.window_size, farm.window_slide, out);

  const double step_cost =
      cal.sim_ns_per_step * 1e-9 / host.speed * effective_overhead(host);

  struct task_state {
    std::size_t next_quantum = 0;
    std::uint64_t next_sample = 0;
  };
  std::vector<task_state> tasks(w.num_trajectories);

  // Per-policy ready queues: one global deque (on-demand) or one per worker
  // (static round-robin).
  const unsigned W = farm.sim_workers;
  std::vector<std::deque<std::uint64_t>> ready(
      farm.policy == dispatch_policy::on_demand ? 1 : W);
  for (std::uint64_t i = 0; i < w.num_trajectories; ++i)
    ready[farm.policy == dispatch_policy::on_demand ? 0 : i % W].push_back(i);

  std::vector<unsigned> free_workers;
  if (farm.policy == dispatch_policy::on_demand) {
    free_workers = {W};
  } else {
    free_workers.assign(W, 1);
  }

  // Forward declaration dance via std::function (self-recursive dispatch).
  std::function<void(unsigned)> try_dispatch = [&](unsigned lane) {
    auto& q = ready[lane];
    auto& free_count = free_workers[lane];
    while (free_count > 0 && !q.empty()) {
      const std::uint64_t traj = q.front();
      q.pop_front();
      --free_count;
      task_state& st = tasks[traj];
      const cwcsim::quantum_record& qw = w.quanta[traj][st.next_quantum];
      const double service = static_cast<double>(qw.ssa_steps) * step_cost;
      out.sim_busy_s += service;
      cpu.submit(service, [&, lane, traj, qw] {
        task_state& ts = tasks[traj];
        // Stream this quantum's samples to the aligner (tiny CPU job so
        // alignment competes for cores like the real aligner thread does).
        const std::uint64_t first = ts.next_sample;
        ts.next_sample += qw.samples;
        if (qw.samples > 0) {
          cpu.submit(analysis.align_cost(qw.samples),
                     [&analysis, first, samples = qw.samples] {
                       analysis.deliver(first, samples);
                     });
        }
        ++ts.next_quantum;
        ++free_workers[lane];
        if (ts.next_quantum < w.quanta[traj].size()) {
          ready[lane].push_back(traj);  // feedback channel: reschedule
        }
        try_dispatch(lane);
      });
    }
  };

  for (unsigned lane = 0; lane < ready.size(); ++lane) try_dispatch(lane);

  out.makespan_s = eng.run();
  util::ensures(out.cuts == w.num_samples, "DES lost trajectory cuts");
  return out;
}

sim_outcome simulate_cluster(const workload& w, const calibration& cal,
                             const cluster_params& cluster) {
  util::expects(!cluster.hosts.empty(), "cluster needs at least one host");
  util::expects(cluster.workers_per_host.empty() ||
                    cluster.workers_per_host.size() == cluster.hosts.size(),
                "workers_per_host must match hosts");
  auto farm_width = [&](std::size_t h) {
    return cluster.workers_per_host.empty() ? cluster.sim_workers_per_host
                                            : cluster.workers_per_host[h];
  };
  engine eng;
  sim_outcome out;

  resource master_cpu(eng, cluster.master.cores);
  analysis_model analysis(master_cpu, w, cal, cluster.master,
                          cluster.stat_engines, cluster.window_size,
                          cluster.window_slide, out);

  const std::size_t H = cluster.hosts.size();
  struct host_rt {
    std::unique_ptr<resource> cpu;
    std::unique_ptr<link> up;    // host -> master (results)
    std::unique_ptr<link> down;  // master -> host (tasks)
    std::deque<std::uint64_t> ready;
    unsigned free_workers = 0;
    double step_cost = 0.0;
  };
  std::vector<host_rt> hosts(H);
  for (std::size_t h = 0; h < H; ++h) {
    hosts[h].cpu = std::make_unique<resource>(eng, cluster.hosts[h].cores);
    hosts[h].up = std::make_unique<link>(eng, cluster.network.latency_s,
                                         cluster.network.bytes_per_s);
    hosts[h].down = std::make_unique<link>(eng, cluster.network.latency_s,
                                           cluster.network.bytes_per_s);
    hosts[h].free_workers = farm_width(h);
    hosts[h].step_cost = cal.sim_ns_per_step * 1e-9 / cluster.hosts[h].speed *
                         effective_overhead(cluster.hosts[h]);
  }

  struct task_state {
    std::size_t next_quantum = 0;
    std::uint64_t next_sample = 0;
  };
  std::vector<task_state> tasks(w.num_trajectories);
  std::deque<std::uint64_t> global_ready;
  for (std::uint64_t i = 0; i < w.num_trajectories; ++i) global_ready.push_back(i);

  std::function<void(std::size_t)> try_dispatch;

  // A host pulls one fresh trajectory from the master (request + task
  // transfer over the interconnect).
  auto request_task = [&](std::size_t h) {
    if (global_ready.empty()) return;
    const std::uint64_t traj = global_ready.front();
    global_ready.pop_front();
    ++out.messages;
    out.comm_bytes += kTaskBytes;
    // Request travels up (latency only), task body comes down the link.
    eng.after(cluster.network.latency_s, [&, h, traj] {
      hosts[h].down->send(kTaskBytes, [&, h, traj] {
        hosts[h].ready.push_back(traj);
        try_dispatch(h);
      });
    });
  };

  try_dispatch = [&](std::size_t h) {
    host_rt& host = hosts[h];
    while (host.free_workers > 0 && !host.ready.empty()) {
      const std::uint64_t traj = host.ready.front();
      host.ready.pop_front();
      --host.free_workers;
      task_state& st = tasks[traj];
      const cwcsim::quantum_record& qw = w.quanta[traj][st.next_quantum];
      const double service = static_cast<double>(qw.ssa_steps) * host.step_cost;
      out.sim_busy_s += service;
      host.cpu->submit(service, [&, h, traj, qw] {
        host_rt& hr = hosts[h];
        task_state& ts = tasks[traj];
        const std::uint64_t first = ts.next_sample;
        ts.next_sample += qw.samples;
        ++ts.next_quantum;
        const bool finished = ts.next_quantum >= w.quanta[traj].size();

        if (qw.samples > 0) {
          const double bytes =
              64.0 + static_cast<double>(qw.samples) * w.sample_bytes();
          ++out.messages;
          out.comm_bytes += bytes;
          hr.up->send(bytes, [&, first, samples = qw.samples] {
            master_cpu.submit(analysis.align_cost(samples),
                              [&analysis, first, samples] {
                                analysis.deliver(first, samples);
                              });
          });
        }

        ++hr.free_workers;
        if (!finished) {
          hr.ready.push_back(traj);  // local feedback, no network
        } else if (hr.ready.size() < hr.free_workers) {
          request_task(h);
        }
        try_dispatch(h);
      });
    }
  };

  // Prime every host with enough pulls to fill its farm.
  for (std::size_t h = 0; h < H; ++h)
    for (unsigned k = 0; k < farm_width(h); ++k) request_task(h);

  out.makespan_s = eng.run();
  util::ensures(out.cuts == w.num_samples, "DES lost trajectory cuts");
  return out;
}

}  // namespace des
