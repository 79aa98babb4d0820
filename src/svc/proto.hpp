// The run-server session protocol: schema-versioned frames exchanged
// between a tenant's client driver and svc::run_server over the dist
// wire/codec stack (net_channel transport, dist/archive framing).
//
// Every frame is [svc_tag byte][schema version byte][payload]; decoders
// reject foreign-build frames with dist::schema_mismatch_error (version
// registry: dist/schema.hpp). Uplink frames (client -> server) travel on
// the server's shared MPSC ingress and therefore carry the sender's
// connection id; downlink frames travel on a per-session channel and need
// no addressing.
//
// Reliability model (v3): the downlink *stream* frames — window,
// trajectory_done, and the terminal complete/error — carry a contiguous
// per-session sequence number, and the client acknowledges consumption
// with a CUMULATIVE count (credit/heartbeat frames carry "I have consumed
// stream frames [0, n)"). Cumulative acks make every uplink flow frame
// idempotent: a dropped or duplicated credit/heartbeat is healed by the
// next one. The server retains sent-but-unacknowledged stream frames in a
// bounded replay buffer, so a client that detects a sequence gap (a
// dropped downlink frame) or loses its connection can reconnect and
// resume the SAME session — open_request::resume_token names it,
// resume_next_seq says what the client already has, and the server
// replays only the missing tail. Execution state checkpoints server-side
// as (lane block, completed-quantum high-water mark); lanes are pure
// functions of (seed, trajectory_id), so a lost quantum deterministically
// replays without disturbing the stream.
//
// Flow control is window-based: the server keeps at most
// `window_credits` stream frames in flight beyond the client's cumulative
// ack, and stops granting a session pool quanta once its queue of
// produced-but-unsent frames reaches the same bound. A subscriber that
// falls behind stops acking, the session's server-side queues fill, and
// the scheduler parks it — the slow tenant throttles itself, never the
// shared pool.
//
// Liveness: every uplink frame refreshes the session's lease; a client
// that goes silent past the server's heartbeat timeout is presumed dead
// and reaped (its session parks recoverable for the retention window,
// then expires). heartbeat is the no-op uplink frame clients send when
// they have nothing else to say. A server shedding load answers open
// requests with a typed retry_after frame instead of admitting.
#pragma once

#include "core/backend.hpp"
#include "dist/wire.hpp"

namespace svc {

/// Frame kind, first byte of every svc frame.
enum class svc_tag : std::uint8_t {
  // ---- uplink: client -> server (shared ingress, addressed) ----
  open = 1,     ///< submit a run request (model + config + QoS knobs)
  credit = 2,   ///< cumulative consumption ack (backpressure release)
  cancel = 3,   ///< cooperative stop: tear down, reply with complete frame
  close = 4,    ///< disconnect: tear down silently (no reply expected)
  // ---- downlink: server -> client (per-session channel) ----
  open_ok = 5,    ///< session admitted (or resumed); streaming begins
  open_error = 6, ///< admission/validation rejected the request (final)
  window = 7,     ///< one window_summary (sequenced stream frame)
  trajectory_done = 8,  ///< one completion notice (sequenced stream frame)
  complete = 9,   ///< run over (normally or via cancel); last frame
  error = 10,     ///< tenant-isolated failure; last frame
  // ---- v3 resilience frames ----
  heartbeat = 11,   ///< uplink: liveness refresh + cumulative ack
  retry_after = 12, ///< downlink: shed under load — come back later
};

/// Uplink: everything the server needs to run a campaign for one tenant.
struct open_request {
  std::uint64_t conn_id = 0;
  /// Fair-share weight of this session in the deficit round-robin
  /// scheduler (relative quanta share under contention).
  double weight = 1.0;
  /// Bound of the per-session stream-frame windows (pending queue AND
  /// in-flight-beyond-ack replay buffer); 0 = server default.
  std::uint64_t window_credits = 0;
  /// Resume an existing session instead of opening a fresh one: the
  /// session_token a previous open_ack handed out. 0 = fresh open.
  std::uint64_t resume_token = 0;
  /// With resume_token: the next stream sequence number this client has
  /// NOT yet consumed (the server replays from here).
  std::uint64_t resume_next_seq = 0;
  cwcsim::sim_config cfg{};
  /// The model description as one dist/model_codec frame. Empty when the
  /// model cannot cross the wire (custom rate laws) and the client
  /// registered its compiled artifact in-process instead.
  dist::byte_buffer model_frame;
  /// In-process fallback token from run_server::register_local_model();
  /// meaningful only when model_frame is empty.
  std::uint64_t local_model = 0;
};

/// Downlink: the session was admitted (or an existing one resumed).
struct open_ack {
  std::uint64_t session_id = 0;
  /// Capability for resume(): quote it in open_request::resume_token to
  /// re-attach to this session after a disconnect or a reap.
  std::uint64_t session_token = 0;
  std::uint32_t pool_workers = 0;  ///< shared pool width (for reports)
  std::uint64_t window_credits = 0;  ///< the bound actually applied
  bool cache_hit = false;  ///< model served from the compiled-model cache
  bool resumed = false;    ///< this ack re-attached an existing session
};

/// Downlink: the open was shed under load; retry after the hinted delay.
struct shed_notice {
  double retry_after_s = 0.0;
  std::string reason;
};

/// Downlink: the run finished (all trajectories, or torn down by cancel).
struct run_complete {
  /// Stream frames sent before this terminal frame; a client whose
  /// next expected sequence is smaller has missed frames and should
  /// resume instead of completing.
  std::uint64_t seq = 0;
  bool stopped = false;          ///< ended via cancel, results partial
  std::uint64_t trajectories = 0;  ///< completions streamed
  std::uint64_t quanta = 0;  ///< trajectory quanta accepted into this session
};

// ---- whole-frame encoders (tag + schema header + payload) -------------

dist::byte_buffer encode_open(const open_request& rq);
/// Cumulative ack: "I have consumed stream frames [0, consumed_total)".
dist::byte_buffer encode_credit(std::uint64_t conn_id,
                                std::uint64_t consumed_total);
/// Liveness refresh; carries the same cumulative ack so a lost credit
/// frame is healed by the next heartbeat.
dist::byte_buffer encode_heartbeat(std::uint64_t conn_id,
                                   std::uint64_t consumed_total);
dist::byte_buffer encode_cancel(std::uint64_t conn_id);
dist::byte_buffer encode_close(std::uint64_t conn_id);

dist::byte_buffer encode_open_ack(const open_ack& a);
dist::byte_buffer encode_open_error(const std::string& reason);
dist::byte_buffer encode_retry_after(const shed_notice& n);
dist::byte_buffer encode_window(std::uint64_t seq,
                                const cwcsim::window_summary& w);
dist::byte_buffer encode_trajectory_done(std::uint64_t seq,
                                         const cwcsim::task_done& d);
dist::byte_buffer encode_complete(const run_complete& c);
dist::byte_buffer encode_error(std::uint64_t seq, const std::string& reason);

// ---- decoding ----------------------------------------------------------

/// Consume the tag byte and validate the schema header; the payload then
/// reads with the matching read_* below. Throws schema_mismatch_error on
/// a foreign frame, std::runtime_error on an unknown tag.
svc_tag read_frame_header(dist::archive_reader& r);

open_request read_open(dist::archive_reader& r);
struct credit_grant {
  std::uint64_t conn_id = 0;
  std::uint64_t consumed_total = 0;
};
credit_grant read_credit(dist::archive_reader& r);  ///< credit/heartbeat
std::uint64_t read_conn_id(dist::archive_reader& r);  ///< cancel/close

open_ack read_open_ack(dist::archive_reader& r);
std::string read_reason(dist::archive_reader& r);  ///< open_error
shed_notice read_retry_after(dist::archive_reader& r);
struct seq_window {
  std::uint64_t seq = 0;
  cwcsim::window_summary window;
};
seq_window read_window(dist::archive_reader& r);
struct seq_task_done {
  std::uint64_t seq = 0;
  cwcsim::task_done done;
};
seq_task_done read_trajectory_done(dist::archive_reader& r);
run_complete read_complete(dist::archive_reader& r);
struct seq_error {
  std::uint64_t seq = 0;
  std::string reason;
};
seq_error read_error(dist::archive_reader& r);

}  // namespace svc
