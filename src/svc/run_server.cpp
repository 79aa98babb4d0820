#include "svc/run_server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/analysis_stage.hpp"
#include "core/lane_executor.hpp"
#include "dist/lane_blocks.hpp"
#include "util/check.hpp"

namespace svc {

namespace {

using clock_t_ = std::chrono::steady_clock;

/// The dispatcher's ingress receive slice.
constexpr double server_tick_s = 0.005;

/// Failed executions of one quantum re-tried (with deterministic
/// checkpoint replay) before the session is declared failed.
constexpr std::uint32_t max_quantum_retries = 2;

clock_t_::duration to_duration(double seconds) {
  return std::chrono::duration_cast<clock_t_::duration>(
      std::chrono::duration<double>(seconds));
}

/// The token connection `conn_id` is issued. Not security — a bijection of
/// the id, so distinct connections never share a token, and scrambled
/// enough that a buggy client cannot name a neighbour by off-by-one.
std::uint64_t session_token(std::uint64_t conn_id) {
  return (0x9E3779B97F4A7C15ULL * conn_id) ^ 0xD1B54A32D192ED03ULL;
}

/// One lane block — trajectories [first, first + lanes) — leased to the
/// pool one quantum at a time, and at the same time the session's
/// checkpoint record for it: `quantum` is the completed-quantum high-water
/// mark. The executor is built on the first lease and stays resident
/// between leases, so the happy path never replays; when it is absent
/// (first lease, or dropped after a failed quantum) the worker rebuilds it
/// and replays rounds [0, quantum) silently: lanes are pure functions of
/// (seed, trajectory_id).
struct block_task {
  std::uint64_t first = 0;
  std::uint64_t lanes = 0;
  std::uint64_t live = 0;  ///< lanes short of t_end at the checkpoint
  std::uint64_t quantum = 0;
  std::uint32_t retries = 0;  ///< failed executions of the CURRENT quantum
  std::unique_ptr<cwcsim::lane_executor> exec;
};

/// One sequenced downlink stream frame, retained until the client's
/// cumulative ack passes it (proto.hpp reliability model).
struct stream_frame {
  std::uint64_t seq = 0;
  dist::byte_buffer frame;
};

/// Why a session is ending; decides the final downlink frame.
enum class end_kind : std::uint8_t {
  none = 0,
  cancelled,  ///< cancel frame: flush the stream, complete{stopped}
  closed,     ///< close frame / disconnect: drop everything, say nothing
  failed,     ///< engine failed beyond its retry budget: error frame
  expired,    ///< parked past session_retention_s: drop silently
};

}  // namespace

// ---------------------------------------------------------------- session

/// Everything the server tracks for one tenant. Lock domains:
///   - ingest_mu : analysis + completion counters. At most one worker
///     delivers into a session at a time (one lease in flight per block
///     keeps per-trajectory sample order; the mutex serializes across the
///     blocks of the same session).
///   - flow_mu   : the downlink attachment + the sequenced stream state
///     (pending/unacked queues, seq counters). Taken under ingest_mu
///     (sink callbacks) and under sched_mu (finalize/attach); never the
///     other way around.
///   - sched_mu  : (owned by run_server::impl) ready queue, inflight
///     count, deficit, lifecycle flags, liveness timestamps.
struct session final : cwcsim::event_sink {
  // Immutable after admission.
  std::uint64_t token = 0;  ///< the session's name (tokens_ key)
  double weight = 1.0;
  std::uint64_t capacity = 8;  ///< svc_config::window_credits
  cwcsim::sim_config cfg{};
  std::shared_ptr<const cwc::compiled_model> model;

  /// Current connection id (sched_mu: resume re-keys it).
  std::uint64_t id = 0;

  // ---- stream flow control (flow_mu) ----
  std::mutex flow_mu;
  /// The attached downlink; null while parked. Under flow_mu because
  /// resume swaps it from the dispatcher while workers are streaming.
  std::shared_ptr<dist::net_channel> down;
  std::uint64_t next_seq = 0;  ///< next stream sequence number to assign
  std::uint64_t acked = 0;     ///< client's cumulative consumption ack
  /// Produced but not yet sent (in-order tail of the stream).
  std::deque<stream_frame> pending;
  /// Sent but not yet acknowledged (bounded replay buffer).
  std::deque<stream_frame> unacked;
  /// Mirrors the scheduler/reaper read without flow_mu.
  std::atomic<std::uint64_t> backlog{0};    ///< pending.size()
  std::atomic<std::uint64_t> unacked_n{0};  ///< unacked.size()

  // ---- ingest (ingest_mu) ----
  std::mutex ingest_mu;
  /// Zero workers: summaries run inline under ingest_mu, the pool being
  /// the session's parallelism. Reset once the last trajectory finished.
  std::optional<cwcsim::analysis_stage> analysis;
  std::uint64_t trajectories_done = 0;

  /// Set at teardown: deliveries into a torn-down session are discarded.
  std::atomic<bool> torn_down{false};

  // ---- scheduler + lifecycle state (run_server::impl::sched_mu) ----
  std::deque<block_task> ready;
  std::uint64_t inflight = 0;   ///< leases granted, not yet delivered
  std::uint64_t accepted = 0;   ///< trajectory quanta ingested
  double deficit = 0.0;
  bool fresh = true;      ///< next scheduler visit starts a new DRR round
  bool finished = false;  ///< every trajectory reached t_end
  /// Reaped and not re-attached since: out of the ring, its connection
  /// abandoned.
  bool parked = false;
  end_kind ending = end_kind::none;
  std::string fail_reason;
  bool finalized = false;
  /// The terminal frame, retained so a resume after completion can
  /// re-deliver the end of the stream.
  std::optional<dist::byte_buffer> terminal_frame;
  clock_t_::time_point last_uplink{};        ///< liveness lease
  clock_t_::time_point last_ack_progress{};  ///< stall detection
  clock_t_::time_point retire_at{};          ///< parked/record expiry

  // ---- stream helpers (callers hold flow_mu) ----

  /// Ship pending frames while the in-flight window has room — or all of
  /// them when the stream is ending and the window bound no longer applies.
  void flush_locked(bool all = false) {
    while (down && (all || unacked.size() < capacity) && !pending.empty()) {
      unacked.push_back(std::move(pending.front()));
      pending.pop_front();
      down->send(unacked.back().frame);
    }
    backlog.store(pending.size(), std::memory_order_relaxed);
    unacked_n.store(unacked.size(), std::memory_order_relaxed);
  }

  /// Apply a cumulative ack ("client consumed [0, total)"). Returns true
  /// if the ack advanced (the stall clock resets on progress).
  bool on_ack_locked(std::uint64_t total) {
    if (total > next_seq) total = next_seq;  // corrupt ack: clamp
    while (!unacked.empty() && unacked.front().seq < total)
      unacked.pop_front();
    unacked_n.store(unacked.size(), std::memory_order_relaxed);
    if (total > acked) {
      acked = total;
      return true;
    }
    return false;
  }

  /// Queue one sequenced stream frame and ship what fits.
  void push_stream_locked(std::uint64_t seq, dist::byte_buffer frame) {
    pending.push_back(stream_frame{seq, std::move(frame)});
    flush_locked();
  }

  // ---- event_sink (called under ingest_mu from the analysis) ----
  void window(cwcsim::window_summary&& w) override {
    const std::lock_guard<std::mutex> lk(flow_mu);
    const std::uint64_t seq = next_seq++;
    push_stream_locked(seq, encode_window(seq, w));
  }

  void trajectory_done(const cwcsim::task_done& d) override {
    const std::lock_guard<std::mutex> lk(flow_mu);
    const std::uint64_t seq = next_seq++;
    push_stream_locked(seq, encode_trajectory_done(seq, d));
  }

  bool stop_requested() const noexcept override {
    return torn_down.load(std::memory_order_relaxed);
  }
};

// ------------------------------------------------------------------- impl

struct run_server::impl {
  explicit impl(const svc_config& cfg)
      : cfg_(cfg),
        cache_(cfg.model_cache_entries),
        ingress_(std::make_shared<dist::net_channel>(
            cfg.chaos.ingress_params())),
        chaos_throw_armed_(cfg.chaos.engine_throw_at_quantum !=
                           chaos_params::no_quantum) {
    // The reaper piggybacks on the dispatcher loop; sample each enabled
    // deadline a few times per period so reaping latency stays small
    // relative to the timeouts it enforces.
    double p = 0.25;
    if (cfg_.heartbeat_timeout_s > 0.0)
      p = std::min(p, cfg_.heartbeat_timeout_s / 4.0);
    if (cfg_.stall_grace_s > 0.0) p = std::min(p, cfg_.stall_grace_s / 4.0);
    if (cfg_.session_retention_s > 0.0)
      p = std::min(p, cfg_.session_retention_s / 4.0);
    reap_period_ = to_duration(std::max(p, 1e-3));
  }

  const svc_config& cfg_;
  model_cache cache_;

  /// Shared MPSC uplink all connections send on; each client_conn holds a
  /// writer slot (and a shared_ptr, so a connection outliving the server
  /// degrades to sends nobody reads instead of a dangling pointer).
  std::shared_ptr<dist::net_channel> ingress_;

  // ---- connection registry (conn_mu) ----
  std::mutex conn_mu_;
  std::uint64_t next_conn_ = 1;
  std::unordered_map<std::uint64_t, std::shared_ptr<dist::net_channel>> downlinks_;

  // ---- local-model registry (conn_mu) ----
  std::uint64_t next_local_ = 1;
  std::unordered_map<std::uint64_t, std::shared_ptr<const cwc::compiled_model>>
      local_models_;

  // ---- scheduler + lifecycle (sched_mu) ----
  mutable std::mutex sched_mu_;
  std::condition_variable sched_cv_;
  bool shutting_down_ = false;
  /// Live, attached sessions by connection id (what the scheduler serves).
  std::unordered_map<std::uint64_t, std::shared_ptr<session>> sessions_;
  /// Every admitted session by token, from admission until its record
  /// expires — what an open can name (live, parked, and completed).
  std::unordered_map<std::uint64_t, std::shared_ptr<session>> tokens_;
  std::vector<std::shared_ptr<session>> ring_;  ///< DRR service order
  std::size_t cursor_ = 0;
  server_stats stats_{};

  std::atomic<bool> dispatcher_stop_{false};
  /// One-shot chaos fault: armed iff chaos.engine_throw_at_quantum is set.
  std::atomic<bool> chaos_throw_armed_;
  clock_t_::duration reap_period_{};
  std::vector<std::thread> workers_;
  std::thread dispatcher_;

  // ---------------------------------------------------------- lifecycle

  void start() {
    // The server's own writer slot on its ingress, held for its whole life:
    // with no client connected, recv_for() then waits out each tick instead
    // of returning at once, so an idle dispatcher sleeps instead of spinning.
    ingress_->add_writer();
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
    workers_.reserve(cfg_.pool_workers);
    for (unsigned i = 0; i < cfg_.pool_workers; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  void stop() {
    {
      const std::lock_guard<std::mutex> lk(sched_mu_);
      shutting_down_ = true;
      // Snapshot first: an idle session (inflight == 0) tears down
      // synchronously through retire_locked, which mutates the registries
      // — erasing while range-iterating would invalidate the loop. The
      // tokens_ registry covers live AND parked sessions, so a parked
      // checkpoint can never keep the destructor waiting.
      std::vector<std::shared_ptr<session>> live;
      live.reserve(tokens_.size());
      for (auto& [tok, s] : tokens_) live.push_back(s);
      for (auto& s : live)
        if (!s->finalized && s->ending == end_kind::none)
          begin_teardown_locked(*s, end_kind::closed, {});
      sched_cv_.notify_all();
    }
    dispatcher_stop_.store(true);
    ingress_->close_writer();
    if (dispatcher_.joinable()) dispatcher_.join();
    for (auto& t : workers_)
      if (t.joinable()) t.join();
  }

  // --------------------------------------------------------- dispatcher

  void dispatcher_loop() {
    auto next_reap = clock_t_::now();
    while (!dispatcher_stop_.load()) {
      auto msg = ingress_->recv_for(server_tick_s);
      if (msg) {
        try {
          handle_frame(*msg);
        } catch (const std::exception&) {
          // Malformed/foreign uplink frame: drop it. The sender (if it is
          // still there) times out and gives up; co-tenants are unaffected.
        }
      }
      const auto now = clock_t_::now();
      if (now >= next_reap) {
        reap(now);
        next_reap = now + reap_period_;
      }
    }
  }

  void handle_frame(const dist::byte_buffer& frame) {
    dist::archive_reader r(frame);
    switch (read_frame_header(r)) {
      case svc_tag::open:
        handle_open(read_open(r));
        break;
      case svc_tag::ack: {
        // The cumulative consumption ack, also re-sent as the heartbeat;
        // it refreshes the liveness lease.
        const stream_ack a = read_ack(r);
        if (auto s = find_and_touch(a.conn_id))
          apply_ack(*s, a.consumed_total);
        break;
      }
      case svc_tag::cancel: {
        const std::uint64_t id = read_conn_id(r);
        const std::lock_guard<std::mutex> lk(sched_mu_);
        auto it = sessions_.find(id);
        if (it != sessions_.end())
          begin_teardown_locked(*it->second, end_kind::cancelled, {});
        break;
      }
      case svc_tag::close: {
        const std::uint64_t id = read_conn_id(r);
        {
          const std::lock_guard<std::mutex> lk(sched_mu_);
          auto it = sessions_.find(id);
          if (it != sessions_.end())
            begin_teardown_locked(*it->second, end_kind::closed, {});
        }
        // The close is the connection's last uplink frame: no open can
        // name it again, and a session still using its downlink holds its
        // own reference until it retires.
        const std::lock_guard<std::mutex> lk(conn_mu_);
        downlinks_.erase(id);
        break;
      }
      default:
        // Downlink-only tag arriving on the uplink: drop.
        break;
    }
  }

  /// Look a live session up by connection id and refresh its liveness
  /// lease (every uplink frame is a heartbeat for lease purposes).
  std::shared_ptr<session> find_and_touch(std::uint64_t id) {
    const std::lock_guard<std::mutex> lk(sched_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return nullptr;
    it->second->last_uplink = clock_t_::now();
    return it->second;
  }

  // ------------------------------------------------------------- liveness

  /// Retire zombies (dead clients, wedged subscribers) and expire parked
  /// records past retention. Runs on the dispatcher thread.
  void reap(clock_t_::time_point now) {
    const std::lock_guard<std::mutex> lk(sched_mu_);
    std::vector<std::shared_ptr<session>> victims;
    for (auto& [id, s] : sessions_) {
      if (s->finalized || s->ending != end_kind::none) continue;
      const bool dead =
          cfg_.heartbeat_timeout_s > 0.0 &&
          now - s->last_uplink > to_duration(cfg_.heartbeat_timeout_s);
      const bool wedged =
          cfg_.stall_grace_s > 0.0 &&
          s->unacked_n.load(std::memory_order_relaxed) > 0 &&
          now - s->last_ack_progress > to_duration(cfg_.stall_grace_s);
      if (dead || wedged) victims.push_back(s);
    }
    for (auto& s : victims) {
      ++stats_.sessions_reaped;
      if (cfg_.session_retention_s > 0.0) {
        park_locked(*s, now);
      } else {
        begin_teardown_locked(*s, end_kind::closed, {});
        forget_connection_locked(s->id);
      }
    }

    std::vector<std::shared_ptr<session>> expired;
    for (auto& [tok, s] : tokens_)
      if ((s->parked || s->finalized) && now >= s->retire_at)
        expired.push_back(s);
    for (auto& s : expired) {
      // A reaped client that never came back sends no close frame.
      if (s->parked) forget_connection_locked(s->id);
      if (s->finalized) {
        // Completed record past retention: just forget the terminal.
        tokens_.erase(s->token);
        continue;
      }
      ++stats_.sessions_expired;
      begin_teardown_locked(*s, end_kind::expired, {});
    }
  }

  /// Drop a connection its client abandoned without a close frame from the
  /// registry. Callers hold sched_mu (the lock order is sched_mu, then
  /// conn_mu).
  void forget_connection_locked(std::uint64_t conn_id) {
    const std::lock_guard<std::mutex> cl(conn_mu_);
    downlinks_.erase(conn_id);
  }

  /// Detach a live session recoverably: out of the scheduler, downlink
  /// released, checkpoints + analysis + stream tail retained for resume.
  /// Callers hold sched_mu.
  void park_locked(session& s, clock_t_::time_point now) {
    s.parked = true;
    s.retire_at = now + to_duration(cfg_.session_retention_s);
    {
      const std::lock_guard<std::mutex> fl(s.flow_mu);
      if (s.down) {
        // A falsely-presumed-dead client that is in fact still reading
        // sees EOS, treats it as a lost connection, and resumes.
        s.down->close_writer();
        s.down.reset();
      }
    }
    sessions_.erase(s.id);
    detach_ring_locked(s);
  }

  // ---------------------------------------------------------- admission

  void handle_open(open_request rq) {
    std::shared_ptr<dist::net_channel> down;
    {
      const std::lock_guard<std::mutex> lk(conn_mu_);
      auto it = downlinks_.find(rq.conn_id);
      if (it == downlinks_.end()) return;  // unknown connection: no reply path
      down = it->second;
    }

    const auto reject = [&](const std::string& why) {
      const std::lock_guard<std::mutex> lk(sched_mu_);
      reject_locked(*down, why);
    };

    {
      const std::lock_guard<std::mutex> lk(sched_mu_);
      if (shutting_down_) {
        reject_locked(*down, "server shutting down");
        return;
      }
      const auto here = sessions_.find(rq.conn_id);
      const auto known = tokens_.find(rq.token);
      if (known != tokens_.end() &&
          (here == sessions_.end() || here->second == known->second)) {
        attach_locked(known->second, rq.conn_id, rq.next_seq, down);
        return;
      }
      if (here != sessions_.end()) {
        reject_locked(*down, "connection already carries a session");
        return;
      }
      // A session the server does not know starts here, under the token
      // this connection was issued: no client can claim one it was not.
      if (rq.token != session_token(rq.conn_id) || rq.next_seq != 0) {
        reject_locked(*down, "unknown or expired session token");
        return;
      }
    }

    // Validation happens server-side too (the server must not trust the
    // client's driver to have checked anything), and BEFORE the shed
    // check: a malformed request gets its final open_error even under
    // load, instead of being told to retry something that can never work.
    try {
      cwcsim::validate(rq.cfg);
    } catch (const std::exception& e) {
      reject(e.what());
      return;
    }
    // The lower bound keeps the DRR fast-forward cheap: a session with a
    // vanishing weight would otherwise stall the scheduler for ~1/weight
    // rounds before earning its first quantum.
    if (!(rq.weight >= 1.0 / 1024.0) || !(rq.weight <= 1024.0)) {
      reject("session weight must be in [1/1024, 1024]");
      return;
    }

    // Shedding, checked before the (possibly expensive) model compile so a
    // turned-away open costs the server almost nothing. Only this thread
    // admits, so the live count cannot grow before the admission below.
    {
      const std::lock_guard<std::mutex> lk(sched_mu_);
      if (shed_locked(*down)) return;
    }

    // Resolve the model: a wire frame goes through the compiled-model
    // cache (one compile per distinct model, shared across tenants); an
    // in-process token looks up a pre-registered artifact.
    std::shared_ptr<const cwc::compiled_model> cm;
    if (!rq.model_frame.empty()) {
      try {
        cm = cache_.get_or_compile(rq.model_frame);
      } catch (const std::exception& e) {
        reject(std::string("model frame rejected: ") + e.what());
        return;
      }
    } else {
      {
        const std::lock_guard<std::mutex> lk(conn_mu_);
        auto it = local_models_.find(rq.local_model);
        if (it != local_models_.end()) cm = it->second;
      }
      // reject() takes sched_mu, which is never taken under conn_mu.
      if (cm == nullptr) {
        reject("open carries neither a model frame nor a known local model");
        return;
      }
    }

    auto s = std::make_shared<session>();
    s->id = rq.conn_id;
    s->token = rq.token;
    s->weight = rq.weight;
    s->capacity = cfg_.window_credits;
    s->cfg = rq.cfg;
    s->model = std::move(cm);
    s->down = down;
    // s->cfg is stable for the session's lifetime (session lives on the
    // heap behind shared_ptr), satisfying analysis_stage's reference.
    s->analysis.emplace(s->cfg, s->model->num_observables(), *s, 0u);
    // Batchable models run as SoA lane blocks of up to kMaxBlockLanes; the
    // rest one trajectory per block. The pool's parallelism is the
    // concurrent tenants, so a session asks for no minimum block count.
    const std::uint64_t n = s->cfg.num_trajectories;
    const bool batch =
        cwcsim::lane_executor::batches({s->model}, dist::kMaxBlockLanes);
    for (const auto& b : dist::split_blocks(n, batch ? 1 : n))
      s->ready.push_back(block_task{b.first, b.lanes, b.lanes, 0, 0, nullptr});

    {
      const std::lock_guard<std::mutex> lk(sched_mu_);
      if (shutting_down_) {
        reject_locked(*down, "server shutting down");
        return;
      }
      const auto now = clock_t_::now();
      s->last_uplink = now;
      s->last_ack_progress = now;
      // The ack must be the first downlink frame (proto.hpp: open_ok is
      // the admission frame that precedes streaming), so send it before
      // the session becomes visible to workers — a fast run could
      // otherwise stream windows and retire ahead of the ack.
      down->send(encode_open_ok());
      sessions_.emplace(s->id, s);
      tokens_.emplace(s->token, s);
      ring_.push_back(s);
      ++stats_.sessions_opened;
      sched_cv_.notify_all();
    }
  }

  /// A final open_error. Callers hold sched_mu.
  void reject_locked(dist::net_channel& down, const std::string& why) {
    ++stats_.sessions_rejected;
    down.send(encode_open_error(why));
  }

  /// Admission: once max_sessions are live, turn the open away with a
  /// retryable retry_after frame. Callers hold sched_mu.
  bool shed_locked(dist::net_channel& down) {
    if (sessions_.size() < cfg_.max_sessions) return false;
    ++stats_.sessions_shed;
    down.send(encode_retry_after("server at capacity"));
    return true;
  }

  /// Attach (or re-attach) a session to a connection: ack first, then
  /// replay the stream tail the client has not consumed, then carry on —
  /// or, for a finalized session, replay tail + terminal and detach
  /// again. A session already attached to this connection is only
  /// re-acked (its ack was lost, or the open duplicated): its stream there
  /// is intact. Callers hold sched_mu.
  void attach_locked(const std::shared_ptr<session>& sp, std::uint64_t conn_id,
                     std::uint64_t next_seq,
                     const std::shared_ptr<dist::net_channel>& down) {
    session& s = *sp;
    const auto now = clock_t_::now();
    {
      const std::lock_guard<std::mutex> fl(s.flow_mu);
      down->send(encode_open_ok());
      if (s.down == down) {
        s.last_uplink = now;
        return;
      }
      // The client moved to a new connection; release the old downlink so
      // anything still reading it sees EOS.
      if (s.down) s.down->close_writer();
      s.down = down;
      // The client owns frames [0, next_seq); everything sent beyond that
      // may have died with the old connection — roll it back in front of
      // the unsent tail and re-send in order.
      s.on_ack_locked(next_seq);
      while (!s.unacked.empty()) {
        s.pending.push_front(std::move(s.unacked.back()));
        s.unacked.pop_back();
      }
      s.unacked_n.store(0, std::memory_order_relaxed);
      if (s.finalized) {
        // The run already ended; replay the tail and the stored terminal
        // frame, keep the record for another resume, detach.
        s.flush_locked(true);
        if (s.terminal_frame) s.down->send(*s.terminal_frame);
        s.down->close_writer();
        s.down.reset();
      } else {
        s.flush_locked();
      }
    }
    if (s.id != conn_id) {
      // The client abandoned the old connection without a close frame, so
      // nothing else will drop its downlink from the registry.
      forget_connection_locked(s.id);
    }
    if (s.finalized) {
      // The record follows the client, so a later move erases this
      // connection's downlink too; the client is back, so expiry leaves it
      // to the client's close frame.
      s.id = conn_id;
      s.parked = false;
      s.retire_at = now + to_duration(cfg_.session_retention_s);
      ++stats_.sessions_resumed;
      return;
    }
    // Re-key into the live registries under the new connection id.
    sessions_.erase(s.id);
    s.id = conn_id;
    sessions_[s.id] = sp;
    if (s.parked) {
      s.parked = false;
      if (s.ending == end_kind::none && !s.finished) ring_.push_back(sp);
    }
    s.last_uplink = now;
    s.last_ack_progress = now;
    ++stats_.sessions_resumed;
    // The replay may have drained a finished session's stream, or the
    // re-attach may have unblocked scheduling.
    maybe_finalize_locked(s);
    sched_cv_.notify_all();
  }

  // -------------------------------------------------------- flow control

  void apply_ack(session& s, std::uint64_t consumed_total) {
    bool progressed;
    {
      const std::lock_guard<std::mutex> lk(s.flow_mu);
      progressed = s.on_ack_locked(consumed_total);
      s.flush_locked();
    }
    const std::lock_guard<std::mutex> lk(sched_mu_);
    if (progressed) s.last_ack_progress = clock_t_::now();
    // The drain may have unblocked scheduling, or let a finished session
    // send its terminal complete frame.
    maybe_finalize_locked(s);
    sched_cv_.notify_all();
  }

  // ----------------------------------------------------------- scheduler

  struct grant {
    std::shared_ptr<session> s;
    block_task task;
  };

  /// A session may receive quanta only while it is live and its subscriber
  /// keeps up. (One delivered quantum can still push several frames into
  /// pending — bounded overshoot of at most the frames one quantum
  /// produces; the bound is on *granting*, which is what stops a slow
  /// tenant from monopolising the pool.)
  static bool eligible(const session& s) {
    return s.ending == end_kind::none && !s.finished && !s.parked &&
           !s.ready.empty() &&
           s.backlog.load(std::memory_order_relaxed) < s.capacity;
  }

  /// What serving a session's next lease costs: its block's live lanes.
  static double cost(const session& s) {
    return static_cast<double>(s.ready.front().live);
  }

  /// Deficit-weighted round robin: a session arriving fresh under the
  /// cursor banks `weight` deficit; a lease costs its live lanes. Sessions
  /// keep their balance across rounds that cannot pay for a lease, so
  /// long-run trajectory-quanta shares are proportional to weight and no
  /// tenant starves.
  std::optional<grant> next_task() {
    std::unique_lock<std::mutex> lk(sched_mu_);
    for (;;) {
      if (shutting_down_) return std::nullopt;
      bool banked = false;  // some eligible session accumulated deficit
      for (std::size_t scanned = ring_.size(); scanned > 0; --scanned) {
        if (ring_.empty()) break;
        if (cursor_ >= ring_.size()) cursor_ = 0;
        session& s = *ring_[cursor_];
        if (!eligible(s)) {
          // Classic DRR: nothing to serve forfeits the balance.
          s.deficit = 0.0;
          s.fresh = true;
          ++cursor_;
          continue;
        }
        if (s.fresh) {
          s.deficit += s.weight;
          s.fresh = false;
        }
        if (s.deficit >= cost(s)) {
          s.deficit -= cost(s);
          grant g{ring_[cursor_], std::move(s.ready.front())};
          s.ready.pop_front();
          ++s.inflight;
          if (s.ready.empty() || s.deficit < cost(s)) {
            s.fresh = true;
            ++cursor_;
          }
          return g;
        }
        banked = true;  // balance grows next round; move on for now
        s.fresh = true;
        ++cursor_;
      }
      if (banked) {
        // Every eligible session banks `weight` once per pass, so the
        // passes until the first one can pay for its next lease are known
        // in advance. Jump everyone ahead by that many passes
        // in one step instead of rescanning the ring ~1/weight times
        // while holding sched_mu_ (which would block the dispatcher and
        // every co-tenant whenever a low-weight session is next in line).
        double passes = std::numeric_limits<double>::infinity();
        for (const auto& sp : ring_)
          if (eligible(*sp))
            passes = std::min(passes,
                              std::ceil((cost(*sp) - sp->deficit) / sp->weight));
        if (std::isfinite(passes) && passes > 0.0)
          for (const auto& sp : ring_)
            if (eligible(*sp)) sp->deficit += passes * sp->weight;
        continue;
      }
      sched_cv_.wait_for(lk, std::chrono::milliseconds(50));
    }
  }

  void worker_loop() {
    while (auto g = next_task()) run_lease(*g);
  }

  /// A block's lanes in one SoA batch group where the model allows,
  /// stepped on the calling pool worker.
  static std::unique_ptr<cwcsim::lane_executor> make_executor(
      const session& s, const block_task& b) {
    std::vector<cwcsim::lane_executor::lane> lanes;
    lanes.reserve(b.lanes);
    for (std::uint64_t i = 0; i < b.lanes; ++i) lanes.push_back({b.first + i, 0});
    return std::make_unique<cwcsim::lane_executor>(
        cwcsim::lane_executor::cell_list{s.model}, s.cfg, std::move(lanes),
        static_cast<std::size_t>(b.lanes), 1);
  }

  // ------------------------------------------------------------- leases

  /// Run one lease — one quantum of one block — deliver it into the
  /// session, and account for it in trajectory quanta.
  void run_lease(grant& g) {
    session& s = *g.s;
    block_task& b = g.task;
    const std::uint64_t lanes = b.live;  // the trajectory quanta leased
    std::uint64_t replayed = 0;
    bool accepted = false;
    bool finished_session = false;
    std::optional<std::string> failure;
    try {
      // Chaos: the injected one-shot engine fault (a worker crash
      // stand-in). Fires before any engine work, so the checkpoint is
      // untouched and recovery replays deterministically.
      if (b.quantum == cfg_.chaos.engine_throw_at_quantum &&
          chaos_throw_armed_.exchange(false, std::memory_order_relaxed))
        throw std::runtime_error("chaos: injected engine fault");
      if (b.exec == nullptr) {
        // First lease, or recovery after a failed quantum: rebuild the
        // block and replay its checkpointed rounds. They restore the exact
        // pre-crash state and are NOT re-ingested (the analysis already
        // has them).
        b.exec = make_executor(s, b);
        while (b.exec->rounds() < b.quantum) {
          replayed += b.exec->live();
          b.exec->round([](const auto&) {},
                        [](std::uint32_t, const cwcsim::task_done&) {});
        }
      }
      // The round's callbacks run after its step, in lane order; the first
      // one takes ingest_mu, so the step itself runs unlocked.
      std::unique_lock<std::mutex> ingest;
      b.exec->round(
          [&](const cwcsim::lane_executor::lane_quantum& q) {
            if (!ingest.owns_lock()) {
              ingest = std::unique_lock<std::mutex>(s.ingest_mu);
              accepted = !s.torn_down.load(std::memory_order_relaxed);
            }
            if (accepted)
              for (const auto& smp : q.samples)
                s.analysis->ingest(q.id.trajectory_id, smp);
          },
          [&](std::uint32_t, const cwcsim::task_done& d) {
            if (!accepted) return;
            ++s.trajectories_done;
            s.trajectory_done(d);
          });
      if (accepted && s.trajectories_done == s.cfg.num_trajectories) {
        s.analysis->finish();
        // No ingest can follow: every trajectory has finished, and a
        // finished block is never requeued. A retained record keeps only
        // its stream tail and terminal.
        s.analysis.reset();
        finished_session = true;
      }
    } catch (const std::exception& e) {
      failure = e.what();
    } catch (...) {
      failure = "unknown engine failure";
    }
    accepted = accepted && !failure;

    const std::lock_guard<std::mutex> lk(sched_mu_);
    --s.inflight;
    stats_.quanta_executed += lanes;
    stats_.quanta_replayed += replayed;
    if (accepted) {
      stats_.quanta_accepted += lanes;
      s.accepted += lanes;
      if (finished_session) s.finished = true;
      b.quantum = b.exec->rounds();
      b.live = b.exec->live();
      b.retries = 0;
    } else {
      stats_.quanta_discarded += lanes;
    }
    if (failure && s.ending == end_kind::none &&
        b.retries >= max_quantum_retries)
      begin_teardown_locked(s, end_kind::failed, *failure);
    if (s.ending != end_kind::none || (!failure && b.live == 0)) {
      // A finished block, or one its session no longer runs: unpin the
      // model before the terminal frame can go out.
      b.exec.reset();
    } else if (failure) {
      // Recoverable: drop the (possibly corrupt) executor and requeue the
      // SAME quantum at the front; the next lease rebuilds the block from
      // its checkpoint and re-executes only this quantum.
      b.exec.reset();
      ++b.retries;
      stats_.quanta_retried += lanes;
      s.ready.push_front(std::move(b));
    } else {
      s.ready.push_back(std::move(b));
    }
    maybe_finalize_locked(s);
    sched_cv_.notify_all();
  }

  // ------------------------------------------------------------ teardown

  /// Mark a session as ending and release its queued leases. Idempotent:
  /// the first kind wins. Callers hold sched_mu.
  void begin_teardown_locked(session& s, end_kind kind, std::string why) {
    if (s.ending != end_kind::none || s.finalized) return;
    s.ending = kind;
    s.fail_reason = std::move(why);
    s.torn_down.store(true, std::memory_order_relaxed);
    s.ready.clear();  // queued leases return to the pool immediately
    if (kind != end_kind::expired) ++stats_.sessions_cancelled;
    maybe_finalize_locked(s);
    sched_cv_.notify_all();
  }

  /// Send the terminal frame and retire the session, once its pool
  /// footprint is gone. Callers hold sched_mu. The terminal frame must be
  /// the LAST downlink frame, so a finished session first drains its
  /// stream (flow window permitting) and a torn-down one waits for
  /// in-flight quanta to deliver.
  void maybe_finalize_locked(session& s) {
    if (s.finalized) return;
    if (s.ending != end_kind::none) {
      if (s.inflight != 0) return;
      bool keep_record = false;
      {
        const std::lock_guard<std::mutex> fl(s.flow_mu);
        if (s.ending == end_kind::cancelled || s.ending == end_kind::failed) {
          // The stream is ending on the server's terms: flush everything
          // the tenant already paid for (backpressure no longer applies),
          // so the terminal frame's seq covers every frame produced.
          s.flush_locked(true);
          dist::byte_buffer terminal;
          if (s.ending == end_kind::cancelled) {
            run_complete c;
            c.seq = s.next_seq;
            c.stopped = true;
            c.trajectories = s.trajectories_done;
            c.quanta = s.accepted;
            terminal = encode_complete(c);
          } else {
            terminal = encode_error(s.next_seq, s.fail_reason);
          }
          if (s.down) s.down->send(terminal);
          s.terminal_frame = std::move(terminal);
          keep_record = cfg_.session_retention_s > 0.0;
        } else {
          // closed / expired: the client walked away (or the record aged
          // out) — nothing to say, nothing to keep.
          s.pending.clear();
          s.unacked.clear();
          s.backlog.store(0, std::memory_order_relaxed);
          s.unacked_n.store(0, std::memory_order_relaxed);
        }
      }
      retire_locked(s, keep_record);
      return;
    }
    if (s.finished && s.inflight == 0) {
      {
        const std::lock_guard<std::mutex> fl(s.flow_mu);
        s.flush_locked();
        if (s.down && !s.pending.empty())
          return;  // window full: wait for acks before the terminal frame
        run_complete c;
        c.seq = s.next_seq;
        c.stopped = false;
        c.trajectories = s.trajectories_done;
        c.quanta = s.accepted;
        s.terminal_frame = encode_complete(c);
        // A parked session finishing has nowhere to send: the record
        // (tail + terminal) waits for a resume.
        if (s.down) s.down->send(*s.terminal_frame);
      }
      ++stats_.sessions_completed;
      retire_locked(s, cfg_.session_retention_s > 0.0);
    }
  }

  void retire_locked(session& s, bool keep_record) {
    s.finalized = true;
    // A retained record needs only its token, stream tail and terminal
    // frame: unpin the model so the cache may evict it.
    s.model.reset();
    {
      const std::lock_guard<std::mutex> fl(s.flow_mu);
      if (s.down) {
        s.down->close_writer();  // subscriber sees downlink_drained()
        s.down.reset();
      }
    }
    sessions_.erase(s.id);
    detach_ring_locked(s);
    if (keep_record)
      s.retire_at = clock_t_::now() + to_duration(cfg_.session_retention_s);
    else
      tokens_.erase(s.token);
  }

  void detach_ring_locked(session& s) {
    for (std::size_t i = 0; i < ring_.size(); ++i)
      if (ring_[i].get() == &s) {
        ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(i));
        if (i < cursor_) --cursor_;
        if (cursor_ >= ring_.size()) cursor_ = 0;
        break;
      }
  }
};

// -------------------------------------------------------------- run_server

run_server::run_server(svc_config cfg) : cfg_(cfg) {
  cfg_.pool_workers = std::max(cfg_.pool_workers, 1u);
  // A session with no window could never be scheduled (its backlog is
  // never below its capacity), and a server with no session slot sheds
  // every open.
  util::expects(cfg_.window_credits > 0,
                "run_server: window_credits must be positive");
  util::expects(cfg_.max_sessions > 0,
                "run_server: max_sessions must be positive");
  const auto knob = [](double v) { return std::isfinite(v) && v >= 0.0; };
  util::expects(knob(cfg_.heartbeat_timeout_s) && knob(cfg_.stall_grace_s) &&
                    knob(cfg_.session_retention_s),
                "run_server: resilience timeouts must be >= 0 and finite");
  const auto prob = [](double p) { return std::isfinite(p) && p >= 0.0 && p < 1.0; };
  util::expects(prob(cfg_.chaos.ingress_drop_prob) &&
                    prob(cfg_.chaos.ingress_dup_prob) &&
                    prob(cfg_.chaos.downlink_drop_prob) &&
                    prob(cfg_.chaos.downlink_dup_prob),
                "run_server: chaos fault probabilities must be in [0, 1)");
  util::expects(knob(cfg_.chaos.ingress_delay_s) &&
                    knob(cfg_.chaos.downlink_delay_s),
                "run_server: chaos delays must be >= 0 and finite");
  impl_ = std::make_unique<impl>(cfg_);
  impl_->start();
}

run_server::~run_server() { impl_->stop(); }

client_conn run_server::connect() {
  std::uint64_t id;
  std::shared_ptr<dist::net_channel> down;
  {
    const std::lock_guard<std::mutex> lk(impl_->conn_mu_);
    id = impl_->next_conn_++;
    down = std::make_shared<dist::net_channel>(cfg_.chaos.downlink_params(id));
    down->add_writer();  // the server's writer slot; closed at retire/park
    impl_->downlinks_.emplace(id, down);
  }
  impl_->ingress_->add_writer();  // the connection's uplink slot
  return client_conn(id, session_token(id), impl_->ingress_, std::move(down));
}

std::uint64_t run_server::register_local_model(
    std::shared_ptr<const cwc::compiled_model> cm) {
  const std::lock_guard<std::mutex> lk(impl_->conn_mu_);
  const std::uint64_t token = impl_->next_local_++;
  impl_->local_models_.emplace(token, std::move(cm));
  return token;
}

void run_server::release_local_model(std::uint64_t token) {
  const std::lock_guard<std::mutex> lk(impl_->conn_mu_);
  impl_->local_models_.erase(token);
}

server_stats run_server::stats() const {
  server_stats out;
  {
    const std::lock_guard<std::mutex> lk(impl_->sched_mu_);
    out = impl_->stats_;
  }
  {
    const std::lock_guard<std::mutex> lk(impl_->conn_mu_);
    out.connections = impl_->downlinks_.size();
    out.local_models = impl_->local_models_.size();
  }
  out.cache = impl_->cache_.stats();
  return out;
}

// -------------------------------------------------------------- client_conn

client_conn::client_conn(client_conn&& o) noexcept
    : id_(o.id_),
      token_(o.token_),
      up_(std::move(o.up_)),
      down_(std::move(o.down_)) {
  o.id_ = 0;
  o.up_.reset();
}

client_conn& client_conn::operator=(client_conn&& o) noexcept {
  if (this != &o) {
    close();
    id_ = o.id_;
    token_ = o.token_;
    up_ = std::move(o.up_);
    down_ = std::move(o.down_);
    o.id_ = 0;
    o.up_.reset();
  }
  return *this;
}

client_conn::~client_conn() { close(); }

void client_conn::send(dist::byte_buffer frame) {
  util::expects(up_ != nullptr, "send on a closed client_conn");
  up_->send(std::move(frame));
}

std::optional<dist::byte_buffer> client_conn::recv_for(double timeout_s) {
  util::expects(down_ != nullptr, "recv_for on a closed client_conn");
  return down_->recv_for(timeout_s);
}

bool client_conn::downlink_drained() const {
  util::expects(down_ != nullptr, "downlink_drained on a closed client_conn");
  return down_->drained();
}

std::uint64_t client_conn::messages_received() const {
  util::expects(down_ != nullptr, "messages_received on a closed client_conn");
  return down_->messages_sent();
}

std::uint64_t client_conn::bytes_received() const {
  util::expects(down_ != nullptr, "bytes_received on a closed client_conn");
  return down_->bytes_sent();
}

void client_conn::close() {
  if (up_ == nullptr) return;
  // Best effort: tell the server we are gone, then release the writer
  // slot. If the server is already gone the frame just sits unread.
  up_->send(encode_close(id_));
  up_->close_writer();
  up_.reset();
  down_.reset();
}

void client_conn::abandon() {
  if (up_ == nullptr) return;
  // No close frame: from the server's point of view this client simply
  // went silent. The heartbeat reaper will notice.
  up_->close_writer();
  up_.reset();
  down_.reset();
}

}  // namespace svc
