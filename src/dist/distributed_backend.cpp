// The cwcsim::distributed backend (paper §IV-B, Fig. 2 bottom): a virtual
// cluster of multicore hosts, each running a farm of simulation engines,
// streaming serialized results to a master that aligns them on-line while
// cfg.stat_engines statistical engines summarise the cuts
// (cwcsim::analysis_stage).
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
// Heterogeneity and fault injection come from the descriptor:
// network.drop_prob models seeded message loss on every data-plane link,
// host_speed stretches a host's quanta, and each cwcsim::kill_spec makes
// its host vanish — mid-quantum, without a goodbye — once it has executed
// `at_sim_time` simulated seconds. The elastic scheduler recovers from
// all of them; results stay bit-identical to the no-fault run.
//
// The model itself crosses the wire ONCE per run: the master encodes the
// model description into a versioned frame (dist/model_codec.hpp) and
// ships it to every host over the modeled network; each host decodes and
// compiles its own cwc::compiled_model, then builds every engine from that
// shared artifact. Models that cannot be encoded (custom rate laws) fall
// back to sharing the master's in-process artifact.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/analysis_stage.hpp"
#include "core/backend.hpp"
#include "core/quantum.hpp"
#include "dist/model_codec.hpp"
#include "dist/net_channel.hpp"
#include "dist/wire.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace dist {

namespace {

using steady_clock = std::chrono::steady_clock;

// ---- elastic-scheduling timeouts (wall clock) ---------------------------
/// An in-flight trajectory with no accepted checkpoint for this long is
/// re-queued for re-issue (straggler, dead host or lost frame).
constexpr double reissue_after_s = 0.25;
/// Master recv_for() slice between deadline scans.
constexpr double master_tick_s = 0.02;
/// Idle-worker wait for a grant before re-sending its work request
/// (self-heals a lost request or grant).
constexpr double worker_retry_s = 0.05;

/// One simulated host's identity and fault/heterogeneity state, shared by
/// its worker threads.
struct host_state {
  unsigned id = 0;
  double speed = 1.0;  ///< relative speed; 0.25 = every quantum takes 4x
  double kill_at = std::numeric_limits<double>::infinity();
  std::atomic<bool> dead{false};
  std::mutex mu;           ///< guards sim_executed
  double sim_executed = 0.0;  ///< simulated seconds advanced by this host
};

/// Run-wide shared state of the virtual cluster.
struct cluster_ctx {
  const cwcsim::sim_config* cfg = nullptr;
  const cwcsim::event_sink* sink = nullptr;
  net_channel* ingress = nullptr;
  std::atomic<bool> run_over{false};   ///< master: campaign finished/aborted
  std::atomic<unsigned> live_workers{0};
  std::mutex err_mu;
  std::exception_ptr error;  ///< first worker/host failure (rethrown by master)
};

void record_error(cluster_ctx& cx) {
  const std::lock_guard<std::mutex> lk(cx.err_mu);
  if (!cx.error) cx.error = std::current_exception();
}

bool has_error(cluster_ctx& cx) {
  const std::lock_guard<std::mutex> lk(cx.err_mu);
  return static_cast<bool>(cx.error);
}

/// Model a slower core: the quantum's measured wall time is stretched to
/// wall/speed by sleeping the difference.
void throttle(const host_state& host, std::uint64_t wall_ns) {
  if (host.speed >= 1.0 || wall_ns == 0) return;
  const double extra = static_cast<double>(wall_ns) * (1.0 / host.speed - 1.0);
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<std::uint64_t>(extra)));
}

/// Account `sim_adv` simulated seconds against the host's kill clock.
/// Returns true when the host just died — the caller must vanish without
/// sending anything (the in-flight quantum is lost, as on a real crash).
bool note_sim_time(host_state& host, double sim_adv) {
  if (host.kill_at == std::numeric_limits<double>::infinity())
    return host.dead.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lk(host.mu);
  host.sim_executed += sim_adv;
  if (host.sim_executed >= host.kill_at) {
    host.dead.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

/// Execute one grant: deterministically resume `trajectory_id` at the
/// acked checkpoint (replaying the already-ingested quanta locally without
/// emitting — engines are pure functions of (seed, id), so the replay is
/// bit-identical to the original execution), then advance quantum by
/// quantum, shipping each one to the master as an atomic quantum_result
/// checkpoint frame.
void run_granted(cluster_ctx& cx, host_state& host,
                 const std::shared_ptr<const cwc::compiled_model>& cm,
                 const work_grant& g) {
  const cwcsim::sim_config& cfg = *cx.cfg;
  const std::uint64_t t = g.trajectory_id;
  cwcsim::any_engine engine(cm, cfg.seed, t);
  std::uint64_t q = 0;

  // ---- silent replay to the checkpoint ----------------------------------
  for (; q < g.resume_quantum; ++q) {
    if (cx.run_over.load(std::memory_order_relaxed) ||
        cx.sink->stop_requested())
      return;
    const double before = engine.time();
    auto out = cwcsim::advance_one_quantum(engine, cfg, t, q);
    throttle(host, out.record.wall_ns);
    if (note_sim_time(host, engine.time() - before)) return;
    if (out.finished) return;  // stale grant past completion: nothing to add
  }

  // ---- live stretch: emit from the checkpoint onward --------------------
  while (!cx.run_over.load(std::memory_order_relaxed) &&
         !cx.sink->stop_requested()) {
    const double before = engine.time();
    auto out = cwcsim::advance_one_quantum(engine, cfg, t, q);
    throttle(host, out.record.wall_ns);
    // A killed host vanishes BEFORE sending: the in-flight quantum is lost
    // and the master recovers it by deadline-driven re-issue.
    if (note_sim_time(host, engine.time() - before)) return;

    quantum_result qr;
    qr.host = host.id;
    qr.trajectory_id = t;
    qr.quantum_index = q;
    qr.time = engine.time();
    qr.steps = engine.steps();
    qr.finished = out.finished;
    qr.samples = std::move(out.batch.samples);
    archive_writer w;
    w.put(wire_tag::quantum_result);
    write_quantum_result(w, qr);
    cx.ingress->send(w.take());

    if (out.finished) return;
    ++q;
  }
}

/// One elastic worker thread: pull a grant, execute it, repeat. Liveness
/// never depends on the master answering a specific request — lost
/// requests/grants are re-sent after worker_retry_s, and the master's
/// exactly-once accounting absorbs the resulting duplicates.
void elastic_worker(cluster_ctx& cx, host_state& host, unsigned worker_idx,
                    const std::shared_ptr<const cwc::compiled_model>& cm,
                    net_channel& ctrl) {
  writer_guard guard(*cx.ingress);
  try {
    while (!cx.run_over.load(std::memory_order_relaxed) &&
           !host.dead.load(std::memory_order_relaxed) &&
           !cx.sink->stop_requested()) {
      {
        archive_writer w;
        w.put(wire_tag::work_request);
        write_work_request(w, {host.id, worker_idx});
        cx.ingress->send(w.take());
      }
      const auto msg = ctrl.recv_for(worker_retry_s);
      if (!msg) {
        if (ctrl.drained()) break;  // master closed the control channel
        continue;                   // request or grant lost: re-send
      }
      archive_reader r(*msg);
      const auto tag = r.get<wire_tag>();
      if (tag == wire_tag::shutdown) break;
      util::ensures(tag == wire_tag::work_grant, "unexpected control frame");
      run_granted(cx, host, cm, read_work_grant(r));
    }
  } catch (...) {
    record_error(cx);
  }
  cx.live_workers.fetch_sub(1, std::memory_order_relaxed);
  // guard closes the ingress writer on all paths; the master's liveness
  // never depends on it (recv_for deadlines own failure detection).
}

/// The cwcsim::distributed driver: the master's schedule-and-align loop
/// over a virtual cluster of host threads.
class distributed_driver final : public cwcsim::backend_driver {
 public:
  distributed_driver(const cwcsim::model_ref& model,
                     const cwcsim::sim_config& cfg,
                     const cwcsim::distributed& cluster)
      : model_(model), cfg_(cfg), cluster_(cluster) {}

  const char* name() const noexcept override { return "distributed"; }

  void run(cwcsim::event_sink& sink, cwcsim::run_report& report) override;

 private:
  cwcsim::model_ref model_;
  cwcsim::sim_config cfg_;
  cwcsim::distributed cluster_;
};

void distributed_driver::run(cwcsim::event_sink& sink,
                             cwcsim::run_report& report) {
  util::stopwatch sw;
  const unsigned H = cluster_.num_hosts;
  const unsigned W = cluster_.workers_per_host;
  const std::uint64_t N = cfg_.num_trajectories;

  // ---- ship the model once per run --------------------------------------
  // The one-shot model frame uses a lossless bootstrap link (think: the
  // reliable control connection a host joins through); the seeded drop
  // stream models loss on the data plane only.
  const std::shared_ptr<const cwc::compiled_model> master_cm = model_.compiled;
  util::ensures(master_cm != nullptr, "distributed run without an artifact");
  const bool ship = wire_encodable(model_);
  byte_buffer model_frame;
  std::vector<std::unique_ptr<net_channel>> model_links;
  net_params boot = cluster_.network;
  boot.drop_prob = 0.0;
  if (ship) {
    model_frame = encode_model(model_);
    model_links.reserve(H);
    for (unsigned h = 0; h < H; ++h) {
      auto link = std::make_unique<net_channel>(boot);
      link->add_writer();
      link->send(model_frame);  // one frame per host, latency modeled
      link->close_writer();
      model_links.push_back(std::move(link));
    }
  }

  // ---- channels: MPSC ingress (hosts -> master), per-host control -------
  net_channel ingress(cluster_.network);
  std::vector<std::unique_ptr<net_channel>> ctrl;
  ctrl.reserve(H);
  for (unsigned h = 0; h < H; ++h) {
    ctrl.push_back(std::make_unique<net_channel>(cluster_.network));
    ctrl.back()->add_writer();  // the master is the only control writer
  }

  // ---- host fault/heterogeneity state -----------------------------------
  std::vector<std::unique_ptr<host_state>> hosts(H);
  for (unsigned h = 0; h < H; ++h) {
    hosts[h] = std::make_unique<host_state>();
    hosts[h]->id = h;
    if (!cluster_.host_speed.empty()) hosts[h]->speed = cluster_.host_speed[h];
  }
  for (const auto& k : cluster_.kills)
    hosts[k.host]->kill_at = std::min(hosts[k.host]->kill_at, k.at_sim_time);

  cluster_ctx cx;
  cx.cfg = &cfg_;
  cx.sink = &sink;
  cx.ingress = &ingress;
  cx.live_workers.store(H * W, std::memory_order_relaxed);

  // ---- launch the virtual cluster ---------------------------------------
  std::vector<std::thread> host_threads;
  host_threads.reserve(H);
  for (unsigned h = 0; h < H; ++h) {
    host_threads.emplace_back([&cx, &hosts, &ctrl, &model_links, &master_cm,
                               ship, W, h] {
      std::shared_ptr<const cwc::compiled_model> host_cm = master_cm;
      if (ship) {
        try {
          // Receive and recompile the model on this host: engines below
          // run on the decoded copy, proving the frame round-trips
          // bit-exactly.
          const auto frame = model_links[h]->recv();
          util::ensures(frame.has_value(), "model frame lost in transit");
          host_cm = decode_model(*frame);
        } catch (...) {
          record_error(cx);
          cx.live_workers.fetch_sub(W, std::memory_order_relaxed);
          return;
        }
      }
      std::vector<std::thread> workers;
      workers.reserve(W);
      for (unsigned w = 0; w < W; ++w)
        workers.emplace_back([&cx, &hosts, &ctrl, host_cm, h, w] {
          elastic_worker(cx, *hosts[h], w, host_cm, *ctrl[h]);
        });
      for (auto& t : workers) t.join();
    });
  }

  // ---- master scheduler state -------------------------------------------
  struct traj_state {
    std::uint64_t acked = 0;  ///< next expected quantum (checkpoint)
    bool done = false;
    bool queued = true;  ///< sitting in the work queue
    unsigned grants = 0;
    std::uint32_t owner = 0xFFFFFFFFu;  ///< host of the latest grant
    steady_clock::time_point last{};    ///< last grant or accepted progress
  };
  std::vector<traj_state> st(N);
  std::deque<std::uint64_t> queue;
  for (std::uint64_t t = 0; t < N; ++t) queue.push_back(t);
  std::deque<work_request> waiting;  ///< idle workers, FIFO
  std::vector<char> pending(static_cast<std::size_t>(H) * W, 0);

  std::uint64_t done_count = 0;
  std::uint64_t grants_issued = 0, reissued = 0, duplicates = 0;
  std::vector<std::uint64_t> host_quanta(H, 0);
  bool cluster_dead = false;

  const auto reissue_after = std::chrono::duration_cast<steady_clock::duration>(
      std::chrono::duration<double>(reissue_after_s));

  report.result.sim_workers = H * W;
  report.result.stat_engines = cfg_.stat_engines;

  // The master aligns on its receive loop; cfg.stat_engines workers
  // summarise the released cuts, so grants wait on a summary only when
  // the workers fall behind.
  cwcsim::analysis_stage analysis(cfg_, model_.num_observables(), sink,
                                  cfg_.stat_engines);

  auto serve = [&](steady_clock::time_point now) {
    while (!waiting.empty() && !queue.empty()) {
      const std::uint64_t t = queue.front();
      queue.pop_front();
      auto& s = st[t];
      s.queued = false;
      if (s.done) continue;  // finished while waiting for re-issue
      // Prefer a host that is NOT the current owner: re-issued work should
      // land somewhere the straggler is not.
      std::size_t pick = 0;
      for (std::size_t i = 0; i < waiting.size(); ++i)
        if (waiting[i].host != s.owner) {
          pick = i;
          break;
        }
      const work_request rq = waiting[pick];
      waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(pick));
      pending[static_cast<std::size_t>(rq.host) * W + rq.worker] = 0;

      archive_writer w;
      w.put(wire_tag::work_grant);
      write_work_grant(w, work_grant{t, s.acked});
      ctrl[rq.host]->send(w.take());
      ++grants_issued;
      ++s.grants;
      s.owner = rq.host;
      s.last = now;
      if (s.grants > 1) {
        ++reissued;
        sink.quantum_reissued(t, s.acked);
      }
    }
  };

  auto scan_deadlines = [&](steady_clock::time_point now) {
    for (std::uint64_t t = 0; t < N; ++t) {
      auto& s = st[t];
      if (s.done || s.queued || s.grants == 0) continue;
      if (now - s.last > reissue_after) {
        queue.push_back(t);
        s.queued = true;
      }
    }
  };

  // ---- master: schedule + align; the statistics run beside it -----------
  auto shutdown_cluster = [&] {
    cx.run_over.store(true, std::memory_order_relaxed);
    for (auto& c : ctrl) {
      archive_writer w;
      w.put(wire_tag::shutdown);
      c->send(w.take());
      c->close_writer();  // closing is not droppable: workers always wake
    }
    for (auto& t : host_threads) t.join();
  };

  try {
    while (done_count < N) {
      if (sink.stop_requested() || has_error(cx)) break;
      if (cx.live_workers.load(std::memory_order_relaxed) == 0) {
        cluster_dead = true;
        break;
      }
      const auto msg = ingress.recv_for(master_tick_s);
      const auto now = steady_clock::now();
      if (msg) {
        archive_reader r(*msg);
        switch (r.get<wire_tag>()) {
          case wire_tag::work_request: {
            const auto rq = read_work_request(r);
            util::ensures(rq.host < H && rq.worker < W,
                          "work request from an unknown worker");
            char& p = pending[static_cast<std::size_t>(rq.host) * W + rq.worker];
            if (!p) {
              p = 1;
              waiting.push_back(rq);
            }
            break;
          }
          case wire_tag::quantum_result: {
            const auto qr = read_quantum_result(r);
            util::ensures(qr.trajectory_id < N && qr.host < H,
                          "quantum result for an unknown trajectory/host");
            auto& s = st[qr.trajectory_id];
            if (s.done || qr.quantum_index != s.acked) {
              // Late duplicate from a superseded execution, or a gap frame
              // after a loss: accounting stays exactly-once.
              ++duplicates;
              break;
            }
            for (const auto& smp : qr.samples)
              analysis.ingest(qr.trajectory_id, smp);
            ++s.acked;
            s.last = now;
            ++host_quanta[qr.host];
            if (qr.finished) {
              s.done = true;
              ++done_count;
              const cwcsim::task_done d{qr.trajectory_id,
                                        qr.quantum_index + 1, qr.steps};
              report.result.completions.push_back(d);
              sink.trajectory_done(d);
            }
            break;
          }
          default:
            util::ensures(false, "unknown wire tag");
        }
      }
      scan_deadlines(now);
      serve(now);
    }
  } catch (...) {
    // Unwinding past joinable threads would std::terminate; shut the
    // cluster down first so contract violations stay catchable.
    shutdown_cluster();
    throw;
  }
  shutdown_cluster();

  {
    const std::lock_guard<std::mutex> lk(cx.err_mu);
    if (cx.error) std::rethrow_exception(cx.error);
  }
  if (cluster_dead && !sink.stop_requested())
    throw std::runtime_error(
        "distributed run failed: every host died before completion");

  analysis.finish();
  if (!sink.stop_requested()) {
    util::ensures(report.result.completions.size() == cfg_.num_trajectories,
                  "lost trajectory completions");
  }

  report.network.emplace();
  report.network->messages = static_cast<std::size_t>(ingress.messages_sent());
  report.network->bytes = static_cast<double>(ingress.bytes_sent());
  report.network->model_bytes =
      ship ? static_cast<double>(model_frame.size()) * H : 0.0;
  report.network->grants = grants_issued;
  report.network->reissued = reissued;
  report.network->duplicate_quanta = duplicates;
  std::uint64_t dropped = ingress.messages_dropped();
  for (const auto& c : ctrl) dropped += c->messages_dropped();
  report.network->messages_dropped = dropped;
  report.network->host_quanta = std::move(host_quanta);
  report.result.wall_seconds = sw.elapsed_s();
}

}  // namespace

}  // namespace dist

namespace cwcsim::detail {

std::unique_ptr<backend_driver> make_distributed_driver(const model_ref& model,
                                                        const sim_config& cfg,
                                                        const distributed& b) {
  // run_builder::open() validated the descriptor and compiled the model.
  return std::make_unique<dist::distributed_driver>(model, cfg, b);
}

}  // namespace cwcsim::detail
