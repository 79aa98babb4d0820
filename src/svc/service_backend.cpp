// The cwcsim::service backend driver: the client half of the run server.
// Adapts one tenant's run to the svc/proto.hpp session protocol so
// run_builder().backend(cwcsim::service{&server}).open() is
// indistinguishable from a local run — same streaming event_sink surface,
// same cooperative stop, and bit-exact windows versus multicore for the
// same (model, seed, config), because the server runs the identical
// engine + analysis_stage composition.
//
// Resilience (the client half of proto.hpp's reliability model):
//   - admission: a shed open (retry_after frame) backs off 50 ms, doubling
//     up to 1 s, and is retried at most five times; a silent server gets
//     the (idempotent) open re-sent every 0.2 s, and an open unanswered
//     for 10 s fails the run. Once admitted, the client waits as long as
//     the run takes: the server closes the downlink of a session it drops.
//   - consumption: stream frames are consumed strictly in sequence
//     order; duplicates (seq < expected) are dropped, and every consumed
//     frame acknowledges cumulatively, so lost acks heal themselves.
//   - liveness: the same cumulative ack goes up again every
//     min(0.25 s, a quarter of the server's heartbeat_timeout_s), keeping
//     the session's lease fresh even when the subscriber is slow.
//   - recovery: the session is named by the first connection's token,
//     held before any frame is read. A sequence gap (seq > expected: a
//     dropped downlink frame) or a dead downlink abandons the connection
//     — NO close frame, the session must survive — and re-opens the
//     session on a fresh connection; the server replays exactly the tail
//     the client has not consumed. A terminal frame whose seq is ahead of
//     the client triggers the same resume, so the run never "completes"
//     with silently missing windows.
//
// The client has no settings of its own beyond its weight: it polls the
// downlink in 10 ms slices, and it reads what depends on the server — the
// heartbeat timeout and the pool width its report names — from
// run_server::config(), never from a frame that might be lost.
#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "dist/model_codec.hpp"
#include "svc/run_server.hpp"
#include "util/stopwatch.hpp"

namespace svc {
namespace {

constexpr double poll_s = 0.01;  ///< downlink receive slice
/// While unadmitted, the open is re-sent after this many empty polls
/// (0.2 s), and the run fails after give_up_s of downlink silence.
constexpr unsigned resend_polls = 20;
constexpr double give_up_s = 10.0;
/// Shed opens retried before the run fails, and the backoff before the
/// first retry; it doubles with each retry up to max_backoff_s.
constexpr unsigned open_retries = 5;
constexpr double first_backoff_s = 0.05;
constexpr double max_backoff_s = 1.0;

/// The heartbeat cadence against a server: a quarter of its heartbeat
/// timeout, and never slower than 0.25 s.
double heartbeat_s(const svc_config& sc) {
  constexpr double slowest = 0.25;
  return sc.heartbeat_timeout_s > 0.0
             ? std::min(slowest, sc.heartbeat_timeout_s / 4.0)
             : slowest;
}

class service_driver final : public cwcsim::backend_driver {
 public:
  service_driver(const cwcsim::model_ref& model, const cwcsim::sim_config& cfg,
                 const cwcsim::service& b)
      : model_(model), cfg_(cfg), b_(b) {}

  const char* name() const noexcept override { return "service"; }

  void run(cwcsim::event_sink& sink, cwcsim::run_report& report) override {
    util::stopwatch sw;
    run_server& srv = *b_.server;

    open_request rq;
    rq.weight = b_.weight;
    rq.cfg = cfg_;
    double model_bytes = 0.0;
    if (dist::wire_encodable(model_)) {
      rq.model_frame = dist::encode_model(model_);
      model_bytes = static_cast<double>(rq.model_frame.size());
    } else {
      // Custom rate laws cannot cross the wire: share the compiled
      // artifact in-process and send its registration instead
      // (run_builder::open() compiled the model before constructing this
      // driver).
      rq.local_model = srv.register_local_model(model_.compiled);
    }
    // Every open of this run, first or re-sent after a reconnect, names
    // the registration; release it once the run is over, whatever its
    // outcome.
    const struct local_model_release {
      run_server& srv;
      std::uint64_t local_model;
      ~local_model_release() {
        if (local_model != 0) srv.release_local_model(local_model);
      }
    } release_local{srv, rq.local_model};

    client_conn conn = srv.connect();
    rq.token = conn.token();  // names the session on every connection
    // Session-spanning state: survives reconnects.
    std::uint64_t expected = 0;  ///< next stream seq to consume
    bool admitted = false;
    bool cancel_sent = false;
    bool complete_seen = false;
    bool error_seen = false;
    std::string error_reason;
    run_complete fin;
    unsigned shed_attempts = 0;
    unsigned resumes = 0;
    unsigned empty_polls = 0;
    std::uint64_t acc_msgs = 0;  ///< downlink traffic of abandoned conns
    double acc_bytes = 0.0;

    const auto send_open = [&] {
      rq.conn_id = conn.id();
      rq.next_seq = expected;
      conn.send(encode_open(rq));
    };
    const auto reconnect = [&] {
      if (++resumes > 64)
        throw std::runtime_error("service: giving up after repeated resumes");
      acc_msgs += conn.messages_received();
      acc_bytes += conn.bytes_received();
      conn.abandon();  // never a close frame: the session must live on
      conn = srv.connect();
      admitted = false;
      empty_polls = 0;
      // A cancel addressed to the dead connection may have been lost;
      // re-issue it on the new one (the ingress is FIFO, so the resume
      // open attaches first).
      cancel_sent = false;
      send_open();
    };

    const std::chrono::duration<double> heartbeat(heartbeat_s(srv.config()));
    auto last_hb = std::chrono::steady_clock::now();

    send_open();
    while (!complete_seen && !error_seen) {
      if (!cancel_sent && sink.stop_requested()) {
        conn.send(encode_cancel(conn.id()));
        cancel_sent = true;
      }
      const auto now = std::chrono::steady_clock::now();
      if (admitted && now - last_hb >= heartbeat) {
        conn.send(encode_ack(conn.id(), expected));
        last_hb = now;
      }

      auto msg = conn.recv_for(poll_s);
      if (!msg) {
        if (conn.downlink_drained()) {
          // The server released this downlink mid-run (reap, or a
          // restart): resume on a fresh connection.
          reconnect();
          continue;
        }
        // Only an open can go unanswered: the server closes the downlink
        // of a session it drops, so an admitted session may stay quiet
        // (sparse windows) for as long as the run takes.
        if (admitted) continue;
        ++empty_polls;
        if (empty_polls % resend_polls == 0) send_open();
        if (static_cast<double>(empty_polls) * poll_s > give_up_s)
          throw std::runtime_error("service: server unresponsive");
        continue;
      }
      empty_polls = 0;

      dist::archive_reader r(*msg);
      switch (read_frame_header(r)) {
        case svc_tag::open_ok:
          admitted = true;
          break;
        case svc_tag::open_error:
          throw std::runtime_error("service: open rejected: " +
                                   read_reason(r));
        case svc_tag::retry_after: {
          const std::string why = read_reason(r);
          if (admitted) break;  // stale/duplicated: already in
          if (++shed_attempts > open_retries)
            throw std::runtime_error("service: open rejected: " + why);
          const double delay = std::min(
              first_backoff_s * static_cast<double>(1u << (shed_attempts - 1)),
              max_backoff_s);
          std::this_thread::sleep_for(std::chrono::duration<double>(delay));
          send_open();
          break;
        }
        case svc_tag::window: {
          seq_window sw2 = read_window(r);
          if (sw2.seq > expected) {
            reconnect();  // gap: a downlink frame was lost
            break;
          }
          if (sw2.seq == expected) {
            ++expected;
            sink.window(std::move(sw2.window));
          }
          // Cumulative ack: also re-assures the server after a duplicate.
          conn.send(encode_ack(conn.id(), expected));
          break;
        }
        case svc_tag::trajectory_done: {
          seq_task_done td = read_trajectory_done(r);
          if (td.seq > expected) {
            reconnect();
            break;
          }
          if (td.seq == expected) {
            ++expected;
            report.result.completions.push_back(td.done);
            sink.trajectory_done(td.done);
          }
          conn.send(encode_ack(conn.id(), expected));
          break;
        }
        case svc_tag::complete: {
          const run_complete c = read_complete(r);
          if (c.seq > expected) {
            // The stream ended but we missed frames: resume and collect
            // them. Never accept a short stream.
            reconnect();
            break;
          }
          fin = c;
          complete_seen = true;
          break;
        }
        case svc_tag::error: {
          seq_error er = read_error(r);
          if (er.seq > expected) {
            reconnect();  // collect the tail before surfacing the failure
            break;
          }
          error_seen = true;
          error_reason = std::move(er.reason);
          break;
        }
        default:
          throw std::runtime_error("service: unexpected uplink tag on the "
                                   "downlink");
      }
    }

    if (error_seen)
      throw std::runtime_error("service: run failed on the server: " +
                               error_reason);

    report.stopped = fin.stopped;
    report.result.sim_workers = srv.config().pool_workers;
    report.result.stat_engines = 1;  // the server's per-session analysis
    report.network.emplace();
    report.network->messages =
        static_cast<std::size_t>(acc_msgs + conn.messages_received());
    report.network->bytes = acc_bytes + static_cast<double>(conn.bytes_received());
    report.network->model_bytes = model_bytes;
    report.network->grants = fin.quanta;
    report.result.wall_seconds = sw.elapsed_s();
  }

 private:
  cwcsim::model_ref model_;
  cwcsim::sim_config cfg_;
  cwcsim::service b_;
};

}  // namespace
}  // namespace svc

namespace cwcsim::detail {

std::unique_ptr<backend_driver> make_service_driver(const model_ref& model,
                                                    const sim_config& cfg,
                                                    const service& b) {
  return std::make_unique<svc::service_driver>(model, cfg, b);
}

}  // namespace cwcsim::detail
