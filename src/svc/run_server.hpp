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
//   - scheduling    — deficit-weighted round robin over sessions: pool
//     workers pull one trajectory quantum at a time, each session
//     accumulates `weight` deficit per scheduler round and pays 1 per
//     quantum, so long-run quanta shares are proportional to weight and
//     no tenant starves. A trajectory is leased to at most one worker at
//     a time; its engine state lives on between quanta.
//   - recovery      — every trajectory lease doubles as a checkpoint
//     record: (trajectory_id, completed-quantum high-water mark). Engines
//     are pure functions of (seed, trajectory_id), so when quantum
//     execution fails (an engine throw — the in-process stand-in for a
//     worker crash) the server rebuilds the engine by silently replaying
//     quanta [0, high-water) and re-executes ONLY the lost quantum, up to
//     max_quantum_retries times, before declaring the session failed.
//   - liveness      — every uplink frame refreshes a session's lease; a
//     reaper retires zombies: a client silent past heartbeat_timeout_s is
//     presumed dead, and a subscriber that stops acknowledging for
//     stall_grace_s while its queues are full is presumed wedged. Reaped
//     sessions park *recoverable* for session_retention_s (checkpoints,
//     analysis state, and unacknowledged stream frames retained), then
//     expire, releasing every lease with the ledger still balancing.
//   - resume        — open_request::resume_token re-attaches a client to
//     its session (parked or live): the server replays unacknowledged
//     stream frames from the client's resume_next_seq and carries on.
//     Completed sessions retain their terminal frame for the retention
//     window, so a client that lost the last frame can still finish.
//   - analysis      — the same cwcsim::analysis_stage every backend
//     uses, run per-session as quanta arrive with zero workers (summaries
//     inline, the pool being the parallelism) and dropped once the
//     session finishes, so windows are bit-exact with the shared-memory
//     pipeline regardless of pool interleaving.
//   - backpressure  — sliding-window flow control (svc/proto.hpp): at
//     most window_credits stream frames in flight beyond the client's
//     cumulative ack, and a session whose produced-but-unsent queue
//     reaches the same bound stops receiving quanta until the subscriber
//     drains. Slow tenants throttle only themselves.
//   - teardown      — cancel (cooperative stop: pending frames flush, a
//     complete{stopped} frame answers) and close (disconnect: the
//     session vanishes silently). Both release the session's queued
//     trajectory leases back to the pool immediately; in-flight quanta
//     finish and are discarded, with quanta_executed ==
//     quanta_accepted + quanta_discarded always balancing.
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
  unsigned pool_workers = 4;   ///< shared quantum-execution threads
  /// Admission bound on live sessions: opens beyond it are shed with
  /// retry_after (retryable), never rejected.
  std::size_t max_sessions = 64;
  /// Per-session stream-frame window bound (pending queue and in-flight
  /// replay buffer), when the open request does not name one.
  std::uint64_t default_window_credits = 8;
  dist::net_params network{};  ///< link model for ingress + downlinks
  double server_tick_s = 0.005;  ///< dispatcher recv_for slice

  // ---- resilience knobs ----
  /// A live session whose client sent NO uplink frame for this long is
  /// presumed dead and reaped. 0 disables liveness reaping.
  double heartbeat_timeout_s = 10.0;
  /// A session whose stream queues are full and whose cumulative ack has
  /// not advanced for this long is a wedged subscriber: reaped. 0
  /// disables stall reaping.
  double stall_grace_s = 30.0;
  /// How long a reaped/disconnected session stays parked recoverable
  /// (and a finished one keeps its terminal record) for resume(). 0
  /// disables recovery: reaped sessions tear down immediately.
  double session_retention_s = 30.0;
  /// Failed quantum executions re-tried (with deterministic checkpoint
  /// replay) before the session is declared failed.
  std::uint32_t max_quantum_retries = 2;
  /// The retry hint a shed open carries back to the client.
  double retry_after_hint_s = 0.05;
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
  std::uint64_t quanta_executed = 0;   ///< quanta the pool ran
  std::uint64_t quanta_accepted = 0;   ///< ingested into a live session
  std::uint64_t quanta_discarded = 0;  ///< ran for a torn-down session/failed
  std::uint64_t quanta_retried = 0;    ///< failed executions re-queued
  /// Quanta silently re-run to rebuild an engine from its checkpoint
  /// (recovery replay; not counted in quanta_executed).
  std::uint64_t quanta_replayed = 0;
  /// Registered connections: connected and not yet closed by the client.
  std::uint64_t connections = 0;
  /// Local models registered and not yet released.
  std::uint64_t local_models = 0;
  cache_stats cache;
};

/// A client's two transport endpoints, from run_server::connect().
/// Move-only RAII: destroying (or close()-ing) an un-opened or mid-run
/// connection signals disconnect, which tears the session down and
/// releases its leases — a vanished tenant can never pin pool capacity.
class client_conn {
 public:
  client_conn() = default;
  client_conn(client_conn&& o) noexcept;
  client_conn& operator=(client_conn&& o) noexcept;
  client_conn(const client_conn&) = delete;
  client_conn& operator=(const client_conn&) = delete;
  ~client_conn();

  std::uint64_t id() const noexcept { return id_; }

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
  client_conn(std::uint64_t id, std::shared_ptr<dist::net_channel> up,
              std::shared_ptr<dist::net_channel> down)
      : id_(id), up_(std::move(up)), down_(std::move(down)) {}

  std::uint64_t id_ = 0;
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

  const svc_config& config() const noexcept { return cfg_; }

  /// Register a client link: the returned endpoints speak svc/proto.hpp
  /// frames. One session per connection.
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
