// Simulation-as-a-service: a long-lived, multi-tenant run server.
//
// One run_server multiplexes many concurrent run requests onto one shared
// worker pool. Clients connect over the dist transport stack (a shared
// MPSC net_channel ingress up, a per-session net_channel down) and speak
// the schema-versioned frame protocol of svc/proto.hpp; the usual way in
// is the cwcsim::service backend, which makes
// run_builder().backend(cwcsim::service{&server}).open() stream through a
// server bit-exactly with a multicore run of the same (model, seed,
// config).
//
// Architecture (one box per concern):
//   - model cache   — compile once per *model*: open requests carry the
//     canonical model frame, svc::model_cache keys artifacts by
//     dist::model_fingerprint, and every tenant running the same model
//     shares one immutable shared_ptr<const compiled_model>. Bounded by
//     LRU eviction (model_cache_entries); live sessions' models stay
//     pinned through their shared_ptr refcounts.
//   - admission     — validate(cfg) server-side plus shedding: once
//     max_sessions sessions are live, new opens are turned away with a
//     typed retry_after frame (clients back off and retry, and are
//     admitted once load clears); admitted sessions are never starved by
//     arrivals. Malformed requests still get a final open_error.
//   - scheduling    — each session is split into contiguous lane blocks
//     (dist/lane_blocks.hpp): near-equal blocks of at most 32 trajectories
//     when lane_executor::batches accepts the model, one trajectory per
//     block otherwise. A lease is one quantum of one block, and a block is
//     leased to at most one worker at a time. Its cwcsim::lane_executor
//     (SoA batch lanes, or one scalar lane) stays resident between leases,
//     as on the dist hosts. Deficit-weighted round robin picks the
//     session: each accumulates `weight` deficit per scheduler round and
//     pays its block's live lanes per lease, so long-run trajectory-quanta
//     shares are proportional to weight and no tenant starves. Every
//     quanta_* counter counts trajectory quanta.
//   - recovery      — every block lease doubles as a checkpoint record:
//     (block, completed-quantum high-water mark). Lanes are pure functions
//     of (seed, trajectory_id), so when a quantum fails (an engine throw —
//     the in-process stand-in for a worker crash) the server drops the
//     block's executor, rebuilds it by silently replaying rounds
//     [0, high-water) and re-executes ONLY the lost quantum, up to two
//     times, before declaring the session failed.
//   - liveness      — every uplink frame refreshes a session's lease; a
//     reaper retires zombies: a client silent past heartbeat_timeout_s is
//     presumed dead, and a subscriber that stops acknowledging for
//     stall_grace_s while its queues are full is presumed wedged. Reaped
//     sessions park *recoverable* for session_retention_s (checkpoints,
//     analysis state, and unacknowledged stream frames retained), then
//     expire, releasing every lease with the ledger still balancing.
//   - sessions      — connect() issues each connection a token before it
//     carries a frame; a session is named by the token of the connection
//     it was opened on, so a client can resume from its first frame on.
//     There is one open path: an open naming a known session (live,
//     parked or completed) re-attaches it to the sending connection and
//     replays unacknowledged stream frames from the open's next_seq; an
//     open naming an unknown session is admitted only under the sending
//     connection's own token with next_seq 0, and refused otherwise.
//     Completed sessions retain their terminal frame for the retention
//     window, so a client that lost the last frame can still finish.
//   - analysis      — the same cwcsim::analysis_stage every backend
//     uses, run per-session with zero workers (summaries inline, the pool
//     being the parallelism) and dropped once the session finishes. The
//     worker that ran a lease delivers its round's samples and completions
//     in lane order under the session's ingest lock, so windows are
//     bit-exact with the shared-memory pipeline regardless of pool
//     interleaving.
//   - backpressure  — sliding-window flow control (svc/proto.hpp): at
//     most window_credits stream frames in flight beyond the client's
//     cumulative ack, and a session whose produced-but-unsent queue
//     reaches the same bound stops receiving quanta until the subscriber
//     drains. Slow tenants throttle only themselves. The window is the
//     server's: every session gets the same one.
//   - teardown      — cancel (cooperative stop: pending frames flush, a
//     complete{stopped} frame answers) and close (disconnect: the
//     session vanishes silently). Both release the session's queued
//     block leases back to the pool immediately; in-flight quanta
//     finish and are discarded, with quanta_executed ==
//     quanta_accepted + quanta_discarded always balancing.
//   - settings      — svc_config holds only deployment settings (the pool,
//     the session and cache bounds, the window, the three deadlines) and
//     the chaos test seam; the dispatcher's 5 ms receive slice, the two
//     quantum retries and the client's backoff are constants. Clients read
//     the settings they need through config() (the pool width for their
//     report, the heartbeat timeout their heartbeat stays well inside), so
//     no frame carries a setting.
//   - chaos         — svc_config::chaos (svc/chaos.hpp) injects seeded
//     drop/duplicate/delay on the ingress and every downlink, and a
//     one-shot engine throw at a chosen quantum index, so the whole
//     resilience surface is testable deterministically.
//
// Tenant isolation: a model whose engine throws mid-quantum beyond its
// retry budget fails only its own session (an error frame, then
// teardown); the server and every co-tenant keep running.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/backend.hpp"
#include "dist/net_channel.hpp"
#include "svc/chaos.hpp"
#include "svc/model_cache.hpp"
#include "svc/proto.hpp"

namespace svc {

struct svc_config {
  /// Shared quantum-execution threads; the constructor raises 0 to 1.
  unsigned pool_workers = 4;
  /// Admission bound on live sessions: opens beyond it are shed with
  /// retry_after (retryable), never rejected. Must be positive.
  std::size_t max_sessions = 64;
  /// Every session's stream-frame window bound (pending queue and
  /// in-flight replay buffer). Must be positive.
  std::uint64_t window_credits = 8;

  // ---- resilience knobs ----
  /// A live session whose client sent NO uplink frame for this long is
  /// presumed dead and reaped. 0 disables liveness reaping. The
  /// cwcsim::service client heartbeats every min(0.25 s, a quarter of it).
  double heartbeat_timeout_s = 10.0;
  /// A session whose stream queues are full and whose cumulative ack has
  /// not advanced for this long is a wedged subscriber: reaped. 0
  /// disables stall reaping.
  double stall_grace_s = 30.0;
  /// How long a reaped/disconnected session stays parked recoverable
  /// (and a finished one keeps its terminal record) for resume(). 0
  /// disables recovery: reaped sessions tear down immediately.
  double session_retention_s = 30.0;
  /// Bound on the compiled-model cache (LRU; live models stay pinned).
  std::size_t model_cache_entries = 64;
  /// Seeded fault injection (off by default; see svc/chaos.hpp).
  chaos_params chaos{};
};

struct server_stats {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_cancelled = 0;  ///< cancel, close, or error
  std::uint64_t sessions_rejected = 0;   ///< validation/protocol rejection
  std::uint64_t sessions_shed = 0;     ///< opens turned away with retry_after
  std::uint64_t sessions_reaped = 0;   ///< zombies retired by the reaper
  std::uint64_t sessions_resumed = 0;  ///< successful resume re-attaches
  std::uint64_t sessions_expired = 0;  ///< parked sessions past retention
  // The quanta_* counters count trajectory quanta: a lease of one block
  // quantum adds its live lanes.
  std::uint64_t quanta_executed = 0;   ///< quanta the pool ran
  std::uint64_t quanta_accepted = 0;   ///< ingested into a live session
  std::uint64_t quanta_discarded = 0;  ///< ran for a torn-down session/failed
  std::uint64_t quanta_retried = 0;    ///< failed executions re-queued
  /// Quanta silently re-run to rebuild a block from its checkpoint
  /// (recovery replay; not counted in quanta_executed).
  std::uint64_t quanta_replayed = 0;
  /// Registered connections: connected and not yet closed by the client.
  std::uint64_t connections = 0;
  /// Local models registered and not yet released.
  std::uint64_t local_models = 0;
  cache_stats cache;
};

/// A client's two transport endpoints and its session token, from
/// run_server::connect(). Move-only RAII: destroying (or close()-ing) an
/// un-opened or mid-run connection signals disconnect, which tears the
/// session down and releases its leases — a vanished tenant can never pin
/// pool capacity.
class client_conn {
 public:
  client_conn() = default;
  client_conn(client_conn&& o) noexcept;
  client_conn& operator=(client_conn&& o) noexcept;
  client_conn(const client_conn&) = delete;
  client_conn& operator=(const client_conn&) = delete;
  ~client_conn();

  std::uint64_t id() const noexcept { return id_; }

  /// The token a session opened on this connection is named by
  /// (open_request::token), held before any frame is read; a client that
  /// loses this connection resumes the session on a fresh one with it.
  std::uint64_t token() const noexcept { return token_; }

  /// Send one uplink frame (svc/proto.hpp encoders).
  void send(dist::byte_buffer frame);

  /// Receive the next downlink frame, waiting at most timeout_s.
  std::optional<dist::byte_buffer> recv_for(double timeout_s);

  /// True once the server closed this session's downlink (last frame —
  /// complete or error — already delivered or lost for good).
  bool downlink_drained() const;

  /// Downlink traffic counters (for run_report::network_stats).
  std::uint64_t messages_received() const;
  std::uint64_t bytes_received() const;

  /// Signal disconnect now (idempotent; the destructor calls it).
  void close();

  /// Vanish WITHOUT telling the server (no close frame): the transport
  /// slot is released but the session lives on until the heartbeat
  /// reaper notices. This is the crashed-client simulation; a resumable
  /// client abandons its old connection before re-attaching.
  void abandon();

  explicit operator bool() const noexcept { return up_ != nullptr; }

 private:
  friend class run_server;
  client_conn(std::uint64_t id, std::uint64_t token,
              std::shared_ptr<dist::net_channel> up,
              std::shared_ptr<dist::net_channel> down)
      : id_(id), token_(token), up_(std::move(up)), down_(std::move(down)) {}

  std::uint64_t id_ = 0;
  std::uint64_t token_ = 0;
  /// The server's shared ingress (shared_ptr: a connection outliving the
  /// server degrades to sends nobody reads, never a dangling pointer).
  std::shared_ptr<dist::net_channel> up_;
  std::shared_ptr<dist::net_channel> down_;
};

class run_server {
 public:
  explicit run_server(svc_config cfg = {});

  /// Tears every live session down, drains the pool, joins all threads.
  ~run_server();

  run_server(const run_server&) = delete;
  run_server& operator=(const run_server&) = delete;

  /// The settings this server runs with (pool_workers at least 1).
  const svc_config& config() const noexcept { return cfg_; }

  /// Register a client link and issue its session token: the returned
  /// endpoints speak svc/proto.hpp frames. One session per connection.
  client_conn connect();

  /// In-process fallback for models that cannot cross the wire (custom
  /// rate laws): register the artifact, reference it from the open
  /// request via open_request::local_model. Bypasses the model cache.
  /// The registration lasts until release_local_model(): a client may
  /// re-open with the same token after its first session retired, so only
  /// the caller knows when no open can name it again.
  std::uint64_t register_local_model(
      std::shared_ptr<const cwc::compiled_model> cm);
  /// Drop a registration; sessions it opened keep their own reference.
  void release_local_model(std::uint64_t token);

  /// Point-in-time counters (thread-safe; exact once the server is idle).
  server_stats stats() const;

 private:
  struct impl;
  svc_config cfg_;
  std::unique_ptr<impl> impl_;
};

}  // namespace svc
