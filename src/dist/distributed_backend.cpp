// The cwcsim::distributed backend (paper §IV-B, Fig. 2 bottom): a virtual
// cluster of multicore hosts, each running a farm of simulation engines,
// streaming serialized results to a master that aligns them on-line while
// cfg.stat_engines statistical engines summarise the cuts
// (cwcsim::analysis_stage).
//
// Work is leased in LANE BLOCKS (dist/lane_blocks.hpp): the N trajectories
// are split into contiguous blocks of at most 32 lanes, at least four per
// worker, and each worker owns an equal share of them, ±1 block. A lease
// is one quantum of one block. The master's only scheduling state is a
// cwcsim::quantum_ledger (core/quantum_ledger.hpp): workers pull leases
// over a per-worker control channel, lowest block checkpoint first among
// the blocks resident on their host, so every block passes the first
// window's quanta before any block runs far ahead and cuts are released
// from the first quanta on. A worker asks for its next lease as it starts
// the current one (the farm's two-slot queue), so a grant round trip
// never idles it.
//
// Hosts keep each block's cwcsim::lane_executor RESIDENT between leases:
// SoA batch lanes whenever lane_executor::batches allows, scalar lanes
// otherwise, bit-identical either way. Blocks change host only as the
// ledger's steal and re-issue rules allow. A host that gets a block it
// does not hold at the checkpoint rebuilds it and replays the acked quanta
// locally without emitting — engines are pure functions of
// (seed, trajectory_id), so any host resumes any block deterministically.
// The host a block moved away from gets a block_release control frame and
// drops its copy, and a dead host's copies go with it.
// Each executed quantum comes back as ONE schema-versioned (v5) checkpoint
// frame per (block, quantum) carrying every live lane's samples. The
// ledger accepts each (block, quantum) exactly once, discards late
// duplicates from superseded executions, and re-issues a silent worker's
// leases after a deadline — to another host first — so a lost host costs
// only its in-flight quanta. The no-fault run is bit-exact with the
// shared-memory pipeline, regardless of where blocks run or how messages
// interleave on the network.
//
// Counters: `grants` counts leases (block quanta granted), `reissued` the
// leases re-granted after a deadline, and `host_quanta` the (trajectory,
// quantum) pairs each host had accepted, so they sum to the completions'
// quanta.
//
// Heterogeneity and fault injection come from the descriptor:
// network.drop_prob models seeded message loss on every data-plane link,
// host_speed stretches each lease's measured wall time, and each
// cwcsim::kill_spec makes its host vanish — mid-quantum, without a
// goodbye — once its lanes have advanced `at_sim_time` simulated seconds
// in total. The elastic scheduler recovers from all of them; results stay
// bit-identical to the no-fault run.
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
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/analysis_stage.hpp"
#include "core/backend.hpp"
#include "core/lane_executor.hpp"
#include "core/quantum_ledger.hpp"
#include "dist/lane_blocks.hpp"
#include "dist/model_codec.hpp"
#include "dist/net_channel.hpp"
#include "dist/wire.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace dist {

namespace {

using steady_clock = std::chrono::steady_clock;

// ---- elastic-scheduling timeouts (wall clock) ---------------------------
/// A worker's oldest lease with no accepted progress for this long is
/// re-issued (straggler, dead host or lost frame).
constexpr double reissue_after_s = 0.25;
/// Master recv_for() slice between deadline scans.
constexpr double master_tick_s = 0.02;
/// Idle-worker wait for a grant before re-sending its work request
/// (self-heals a lost request or grant).
constexpr double worker_retry_s = 0.05;

/// One simulated host's identity, fault/heterogeneity state and resident
/// blocks, shared by its worker threads.
struct host_state {
  unsigned id = 0;
  double speed = 1.0;  ///< relative speed; 0.25 = every lease takes 4x
  double kill_at = std::numeric_limits<double>::infinity();
  std::atomic<bool> dead{false};
  std::mutex mu;              ///< guards sim_executed and blocks
  double sim_executed = 0.0;  ///< simulated seconds its lanes advanced
  /// Block executors kept between leases. A worker takes a block out for
  /// its lease and puts it back, so two workers never share one; the
  /// master's block_release drops a block that moved to another host.
  std::unordered_map<std::uint64_t, std::unique_ptr<cwcsim::lane_executor>>
      blocks;

  std::unique_ptr<cwcsim::lane_executor> take(std::uint64_t block) {
    const std::lock_guard<std::mutex> lk(mu);
    const auto it = blocks.find(block);
    if (it == blocks.end()) return nullptr;
    auto ex = std::move(it->second);
    blocks.erase(it);
    return ex;
  }

  void keep(std::uint64_t block, std::unique_ptr<cwcsim::lane_executor> ex) {
    const std::lock_guard<std::mutex> lk(mu);
    blocks[block] = std::move(ex);
  }

  /// Drop a block that moved to another host.
  void release(std::uint64_t block) {
    const std::lock_guard<std::mutex> lk(mu);
    blocks.erase(block);
  }
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

/// Model a slower core: the measured wall time is stretched to wall/speed
/// by sleeping the difference.
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

/// Run one round of a block on this host: throttled to the host's speed
/// and charged to its kill clock. False when the host died in it.
bool run_round(host_state& host, cwcsim::lane_executor& ex,
               const cwcsim::lane_executor::samples_fn& on_samples) {
  util::stopwatch sw;
  const double adv =
      ex.round(on_samples, [](std::uint32_t, const cwcsim::task_done&) {});
  throttle(host, sw.elapsed_ns());
  return !note_sim_time(host, adv);
}

/// Execute one lease: bring the block to the granted checkpoint — it is
/// resident there already unless it changed host, in which case its acked
/// quanta are replayed locally without emitting (bit-identical to the
/// original execution) — then run that quantum and ship every live lane's
/// share of it as one block_result checkpoint frame.
void run_lease(cluster_ctx& cx, host_state& host,
               const std::shared_ptr<const cwc::compiled_model>& cm,
               const work_grant& g) {
  const cwcsim::sim_config& cfg = *cx.cfg;
  auto ex = host.take(g.block);
  if (ex == nullptr || ex->rounds() > g.quantum) {
    std::vector<cwcsim::lane_executor::lane> lanes;
    lanes.reserve(g.lanes);
    for (std::uint64_t i = 0; i < g.lanes; ++i)
      lanes.push_back({g.first_trajectory + i, 0});
    ex = std::make_unique<cwcsim::lane_executor>(
        cwcsim::lane_executor::cell_list{cm}, cfg, std::move(lanes),
        static_cast<std::size_t>(g.lanes), 1);
  }

  // ---- silent replay to the checkpoint ----------------------------------
  while (ex->rounds() < g.quantum) {
    if (cx.run_over.load(std::memory_order_relaxed) ||
        cx.sink->stop_requested())
      return;
    if (!run_round(host, *ex, [](const auto&) {})) return;
    if (ex->live() == 0) return;  // stale grant past completion
  }

  // ---- the leased quantum, streamed into one frame ------------------------
  archive_writer w;
  w.put(wire_tag::block_result);
  begin_block_result(w, host.id, g.block, g.quantum, ex->live());
  // A killed host vanishes BEFORE sending: the in-flight quantum is lost
  // and the master recovers it by deadline-driven re-issue.
  if (!run_round(host, *ex,
                 [&](const cwcsim::lane_executor::lane_quantum& l) {
                   put_lane_result(w, l.id.trajectory_id, l.time,
                                   l.total_steps, l.time >= cfg.t_end,
                                   l.samples);
                 }))
    return;
  // Parked before the frame leaves: a block_release the master sends in
  // answer always finds it.
  if (ex->live() > 0) host.keep(g.block, std::move(ex));
  cx.ingress->send(w.take());
}

/// One elastic worker thread: pull a lease, ask for the next one, run the
/// first, repeat. Liveness never depends on the master answering a
/// specific request — lost requests/grants are re-sent after
/// worker_retry_s, and the master's exactly-once accounting absorbs the
/// resulting duplicates.
void elastic_worker(cluster_ctx& cx, host_state& host, unsigned worker_idx,
                    const std::shared_ptr<const cwc::compiled_model>& cm,
                    net_channel& ctrl) {
  writer_guard guard(*cx.ingress);
  const auto ask = [&] {
    archive_writer w;
    w.put(wire_tag::work_request);
    write_work_request(w, {host.id, worker_idx});
    cx.ingress->send(w.take());
  };
  try {
    bool asked = false;
    while (!cx.run_over.load(std::memory_order_relaxed) &&
           !host.dead.load(std::memory_order_relaxed) &&
           !cx.sink->stop_requested()) {
      if (!asked) ask();
      asked = true;
      const auto msg = ctrl.recv_for(worker_retry_s);
      if (!msg) {
        if (ctrl.drained()) break;  // master closed the control channel
        asked = false;              // request or grant lost: re-send
        continue;
      }
      archive_reader r(*msg);
      const auto tag = r.get<wire_tag>();
      if (tag == wire_tag::shutdown) break;
      if (tag == wire_tag::block_release) {
        host.release(r.get<std::uint64_t>());
        continue;  // still waiting for the asked-for grant
      }
      util::ensures(tag == wire_tag::work_grant, "unexpected control frame");
      const work_grant g = read_work_grant(r);
      ask();  // the next lease's grant travels while this one runs
      run_lease(cx, host, cm, g);
    }
  } catch (...) {
    record_error(cx);
  }
  if (host.dead.load(std::memory_order_relaxed)) {
    const std::lock_guard<std::mutex> lk(host.mu);
    host.blocks.clear();  // a dead host's memory is gone with it
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

  // ---- channels: MPSC ingress (hosts -> master), per-worker control -----
  net_channel ingress(cluster_.network);
  std::vector<std::unique_ptr<net_channel>> ctrl;
  ctrl.reserve(static_cast<std::size_t>(H) * W);
  for (std::size_t k = 0; k < static_cast<std::size_t>(H) * W; ++k) {
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
        workers.emplace_back([&cx, &hosts, &ctrl, host_cm, h, w, W] {
          elastic_worker(cx, *hosts[h], w, host_cm,
                         *ctrl[static_cast<std::size_t>(h) * W + w]);
        });
      for (auto& t : workers) t.join();
    });
  }

  // ---- master scheduler state: the lane blocks and their ledger ---------
  const std::vector<lane_block> blocks = plan_blocks(N, H, W);
  std::vector<std::uint32_t> home;
  home.reserve(blocks.size());
  for (const auto& b : blocks) home.push_back(b.home);
  cwcsim::quantum_ledger ledger(
      std::move(home), H, W,
      static_cast<std::uint64_t>(std::ceil(cfg_.t_end / cfg_.quantum)),
      std::chrono::duration_cast<steady_clock::duration>(
          std::chrono::duration<double>(reissue_after_s)),
      steady_clock::now());
  std::vector<char> finished(N, 0);  ///< per trajectory: completion reported
  std::vector<std::uint64_t> host_quanta(H, 0);
  bool cluster_dead = false;

  report.result.sim_workers = H * W;
  report.result.stat_engines = cfg_.stat_engines;

  // The master aligns on its receive loop; cfg.stat_engines workers
  // summarise the released cuts, so grants wait on a summary only when
  // the workers fall behind.
  cwcsim::analysis_stage analysis(cfg_, model_.num_observables(), sink,
                                  cfg_.stat_engines);

  // A host that may still hold a block that moved away drops it (worker 0
  // reads the host's control frames between leases). A lost release only
  // leaves a stale copy resident.
  auto release = [&](std::uint32_t host, std::uint64_t block) {
    archive_writer w;
    w.put(wire_tag::block_release);
    w.put<std::uint64_t>(block);
    ctrl[static_cast<std::size_t>(host) * W]->send(w.take());
  };

  // Accept one block frame exactly once: its samples go to the alignment,
  // its finished lanes become completions.
  auto ingest = [&](const block_result& b, steady_clock::time_point now) {
    util::ensures(b.block < blocks.size() && b.host < H && !b.lanes.empty(),
                  "block result for an unknown block/host");
    const lane_block& blk = blocks[b.block];
    for (const auto& l : b.lanes)
      util::ensures(l.trajectory_id - blk.first < blk.lanes,
                    "block result for a lane outside its block");
    const auto unit = static_cast<std::uint32_t>(b.block);
    const bool fresh =
        ledger.accept(unit, b.quantum_index, b.host, b.finished(), now);
    // A late frame from a host the block has since moved away from: that
    // host parked its copy before sending.
    const std::uint32_t at = ledger.resident(unit);
    if (at != b.host && at != cwcsim::quantum_ledger::no_host)
      release(b.host, b.block);
    if (!fresh) return;  // late duplicate or gap frame: exactly-once
    for (const auto& l : b.lanes)
      for (const auto& smp : l.samples) analysis.ingest(l.trajectory_id, smp);
    host_quanta[b.host] += b.lanes.size();
    for (const auto& l : b.lanes) {
      if (!l.finished) continue;
      finished[l.trajectory_id] = 1;
      const cwcsim::task_done d{l.trajectory_id, b.quantum_index + 1, l.steps};
      report.result.completions.push_back(d);
      sink.trajectory_done(d);
    }
  };

  auto grant = [&](const cwcsim::quantum_ledger::lease& l) {
    const lane_block& blk = blocks[l.unit];
    archive_writer w;
    w.put(wire_tag::work_grant);
    write_work_grant(w, work_grant{l.unit, blk.first, blk.lanes, l.quantum});
    ctrl[static_cast<std::size_t>(l.host) * W + l.worker]->send(w.take());
    if (l.from != cwcsim::quantum_ledger::no_host) release(l.from, l.unit);
    if (l.reissue)
      for (std::uint64_t t = blk.first; t < blk.first + blk.lanes; ++t)
        if (finished[t] == 0) sink.quantum_reissued(t, l.quantum);
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
    while (!ledger.all_done()) {
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
            ledger.request(rq.host, rq.worker);
            break;
          }
          case wire_tag::block_result:
            ingest(read_block_result(r), now);
            break;
          default:
            util::ensures(false, "unknown wire tag");
        }
      }
      ledger.expire(now);
      for (const auto& l : ledger.serve(now)) grant(l);
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
  report.network->grants = ledger.grants();
  report.network->reissued = ledger.reissued();
  report.network->duplicate_quanta = ledger.duplicates();
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
