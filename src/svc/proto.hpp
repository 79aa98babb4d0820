// The run-server session protocol: schema-versioned frames exchanged
// between a tenant's client driver and svc::run_server over the dist
// wire/codec stack (net_channel transport, dist/archive framing).
//
// Every frame is [svc_tag byte][schema version byte][payload]; decoders
// reject foreign-build frames with dist::schema_mismatch_error (version
// registry: dist/schema.hpp). Uplink frames (client -> server) travel on
// the server's shared MPSC ingress and therefore carry the sender's
// connection id; downlink frames travel on the connection's own channel
// and need no addressing.
//
// Sessions (v7): run_server::connect() issues every connection a token
// (client_conn::token()) before it carries a frame, and a session is named
// by the token of the connection it was opened on. An open names its
// session and the next stream sequence number the client lacks. The server
// resumes a session it knows on the sending connection, replaying from
// that number, and re-acks an open for the session already attached there.
// A session it does not know is admitted only under the sending
// connection's own token with next_seq 0; any other open gets open_error,
// so no client can take over a token it was not issued.
//
// Reliability: the downlink *stream* frames — window, trajectory_done,
// and the terminal complete/error — carry a contiguous per-session
// sequence number, and the client acknowledges consumption with a
// CUMULATIVE count (the ack frame: "I have consumed stream frames
// [0, n)"). Cumulative acks make every ack idempotent: a dropped or
// duplicated one is healed by the next. The server retains
// sent-but-unacknowledged stream frames in a bounded replay buffer, so a
// client that detects a sequence gap (a dropped downlink frame) or loses
// its connection re-opens the SAME session on a fresh connection and the
// server replays only the missing tail. Execution state checkpoints
// server-side as (lane block, completed-quantum high-water mark); lanes
// are pure functions of (seed, trajectory_id), so a lost quantum
// deterministically replays without disturbing the stream.
//
// Flow control is window-based: the server keeps at most its
// svc_config::window_credits stream frames in flight beyond the client's
// cumulative ack, and stops granting a session pool quanta once its queue
// of produced-but-unsent frames reaches the same bound. A subscriber that
// falls behind stops acking, the session's server-side queues fill, and
// the scheduler parks it — the slow tenant throttles itself, never the
// shared pool. The window is the server's alone: no frame carries one.
//
// Liveness: every uplink frame refreshes the session's lease; a client
// that goes silent past the server's heartbeat timeout is presumed dead
// and reaped (its session parks recoverable for the retention window,
// then expires). Clients re-send their cumulative ack as a heartbeat when
// they have nothing else to say. A server shedding load answers open
// requests with a typed retry_after frame instead of admitting; the
// client's backoff is its own, so the frame carries only a reason.
// Frames carry no server settings: open_ok is a bare admission tag, and a
// client reads the pool width and heartbeat timeout from the server's
// config.
#pragma once

#include "core/backend.hpp"
#include "dist/wire.hpp"

namespace svc {

/// Frame kind, first byte of every svc frame.
enum class svc_tag : std::uint8_t {
  // ---- uplink: client -> server (shared ingress, addressed) ----
  open = 1,     ///< open or resume a session (model + config + weight)
  ack = 2,      ///< cumulative consumption ack; also the liveness heartbeat
  cancel = 3,   ///< cooperative stop: tear down, reply with complete frame
  close = 4,    ///< disconnect: tear down silently (no reply expected)
  // ---- downlink: server -> client (per-connection channel) ----
  open_ok = 5,    ///< session admitted (or resumed); streaming begins
  open_error = 6, ///< admission/validation rejected the request (final)
  window = 7,     ///< one window_summary (sequenced stream frame)
  trajectory_done = 8,  ///< one completion notice (sequenced stream frame)
  complete = 9,   ///< run over (normally or via cancel); last frame
  error = 10,     ///< tenant-isolated failure; last frame
  retry_after = 11, ///< shed under load — come back later
};

/// Uplink: everything the server needs to run a campaign for one tenant,
/// and the session it is (or becomes).
struct open_request {
  std::uint64_t conn_id = 0;
  /// Fair-share weight of this session in the deficit round-robin
  /// scheduler (relative quanta share under contention).
  double weight = 1.0;
  /// The session: client_conn::token() of the connection it was first
  /// opened on.
  std::uint64_t token = 0;
  /// The next stream sequence number this client has NOT yet consumed
  /// (the server replays from here); 0 on a session's first open.
  std::uint64_t next_seq = 0;
  cwcsim::sim_config cfg{};
  /// The model description as one dist/model_codec frame. Empty when the
  /// model cannot cross the wire (custom rate laws) and the client
  /// registered its compiled artifact in-process instead.
  dist::byte_buffer model_frame;
  /// In-process fallback token from run_server::register_local_model();
  /// meaningful only when model_frame is empty.
  std::uint64_t local_model = 0;
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
/// Re-sent unchanged as the heartbeat, so a lost ack is healed by the next.
dist::byte_buffer encode_ack(std::uint64_t conn_id,
                             std::uint64_t consumed_total);
dist::byte_buffer encode_cancel(std::uint64_t conn_id);
dist::byte_buffer encode_close(std::uint64_t conn_id);

/// open_ok: the session was admitted (or resumed); no payload.
dist::byte_buffer encode_open_ok();
dist::byte_buffer encode_open_error(const std::string& reason);
dist::byte_buffer encode_retry_after(const std::string& reason);
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
struct stream_ack {
  std::uint64_t conn_id = 0;
  std::uint64_t consumed_total = 0;
};
stream_ack read_ack(dist::archive_reader& r);
std::uint64_t read_conn_id(dist::archive_reader& r);  ///< cancel/close

std::string read_reason(dist::archive_reader& r);  ///< open_error, retry_after
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
