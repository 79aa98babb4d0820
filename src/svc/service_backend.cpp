// The cwcsim::service backend driver: the client half of the run server.
// Adapts one tenant's run to the svc/proto.hpp session protocol so
// run_builder().backend(cwcsim::service{&server}).open() is
// indistinguishable from a local run — same streaming event_sink surface,
// same cooperative stop, and bit-exact windows versus multicore for the
// same (model, seed, config), because the server runs the identical
// engine + analysis_stage composition.
//
// Resilience (the client half of proto.hpp's reliability model):
//   - admission: a shed open (retry_after frame) backs off with capped
//     exponential delay and retries, up to service::open_retries; a
//     silent server gets the (idempotent) open re-sent.
//   - consumption: stream frames are consumed strictly in sequence
//     order; duplicates (seq < expected) are dropped, and every consumed
//     frame acknowledges cumulatively, so lost credit frames heal
//     themselves.
//   - liveness: a heartbeat (carrying the same cumulative ack) goes up
//     every service::heartbeat_s, keeping the session's lease fresh even
//     when the subscriber is slow.
//   - recovery: a sequence gap (seq > expected: a dropped downlink
//     frame) or a dead downlink abandons the connection — NO close
//     frame, the session must survive — reconnects, and resumes via the
//     session token from the admission ack; the server replays exactly
//     the tail the client has not consumed. A terminal frame whose seq
//     is ahead of the client triggers the same resume, so the run never
//     "completes" with silently missing windows.
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
    rq.window_credits = b_.window_credits;
    rq.cfg = cfg_;
    double model_bytes = 0.0;
    if (dist::wire_encodable(model_)) {
      rq.model_frame = dist::encode_model(model_);
      model_bytes = static_cast<double>(rq.model_frame.size());
    } else {
      // Custom rate laws cannot cross the wire: share the compiled
      // artifact in-process and send a token instead (run_builder::open()
      // compiled the model before constructing this driver).
      rq.local_model = srv.register_local_model(model_.compiled);
    }

    client_conn conn = srv.connect();
    // Session-spanning state: survives reconnects.
    std::uint64_t token = 0;     ///< resume capability from the open ack
    std::uint64_t expected = 0;  ///< next stream seq to consume
    open_ack ack;
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
      rq.resume_token = token;
      rq.resume_next_seq = expected;
      conn.send(encode_open(rq));
    };
    const auto reconnect = [&] {
      if (token == 0 && expected != 0)
        throw std::runtime_error(
            "service: connection lost before the session was established");
      // token == 0 && expected == 0: the downlink died before the open
      // ack arrived and nothing was consumed — starting over from
      // scratch on a fresh connection is safe (a half-open server
      // session for the dead connection is reaped as a vanish).
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

    // Re-send the (idempotent) open after this much downlink silence
    // while unadmitted, and give up entirely after `give_up_s` of it.
    const unsigned resend_every =
        std::max(1u, static_cast<unsigned>(0.2 / std::max(b_.tick_s, 1e-4)));
    const double give_up_s = 10.0;
    auto last_hb = std::chrono::steady_clock::now();

    send_open();
    while (!complete_seen && !error_seen) {
      if (!cancel_sent && sink.stop_requested()) {
        conn.send(encode_cancel(conn.id()));
        cancel_sent = true;
      }
      const auto now = std::chrono::steady_clock::now();
      if (admitted &&
          now - last_hb >= std::chrono::duration<double>(b_.heartbeat_s)) {
        conn.send(encode_heartbeat(conn.id(), expected));
        last_hb = now;
      }

      auto msg = conn.recv_for(b_.tick_s);
      if (!msg) {
        if (conn.downlink_drained()) {
          if (token == 0 && expected != 0) {
            // The server parked us (reap) before the open ack ever got
            // through. A fresh connection could not resume without a
            // token and consumed frames forbid starting over — but the
            // uplink still works, so keep re-opening on THIS connection:
            // the server re-attaches by connection id and re-opens the
            // downlink (EOS does not latch). recv_for returns instantly
            // on a drained channel, so pace the loop ourselves.
            std::this_thread::sleep_for(
                std::chrono::duration<double>(b_.tick_s));
            ++empty_polls;
            if (empty_polls % resend_every == 0) send_open();
            if (static_cast<double>(empty_polls) * b_.tick_s > give_up_s)
              throw std::runtime_error("service: server unresponsive");
            continue;
          }
          // The server released this downlink mid-run (reap, or a
          // restart): resume on a fresh connection.
          reconnect();
          continue;
        }
        ++empty_polls;
        if (!admitted && empty_polls % resend_every == 0) send_open();
        if (static_cast<double>(empty_polls) * b_.tick_s > give_up_s)
          throw std::runtime_error("service: server unresponsive");
        continue;
      }
      empty_polls = 0;

      dist::archive_reader r(*msg);
      switch (read_frame_header(r)) {
        case svc_tag::open_ok: {
          const open_ack a = read_open_ack(r);
          if (!admitted) {
            ack = a;
            token = a.session_token != 0 ? a.session_token : token;
            admitted = true;
          }
          // Duplicate acks (re-sent for a duplicated open) are dropped.
          break;
        }
        case svc_tag::open_error:
          throw std::runtime_error("service: open rejected: " +
                                   read_reason(r));
        case svc_tag::retry_after: {
          const shed_notice n = read_retry_after(r);
          if (admitted) break;  // stale/duplicated: already in
          if (++shed_attempts > b_.open_retries)
            throw std::runtime_error("service: open rejected: " + n.reason);
          // Capped exponential backoff from the server's hint. The
          // exponent is capped too, so open_retries > 32 cannot overflow
          // the shift.
          const double base = n.retry_after_s > 0.0 ? n.retry_after_s : 0.01;
          const unsigned doublings = std::min(shed_attempts - 1, 30u);
          const double delay =
              std::min(base * static_cast<double>(1u << doublings), 1.0);
          std::this_thread::sleep_for(std::chrono::duration<double>(delay));
          send_open();
          break;
        }
        case svc_tag::window: {
          seq_window sw2 = read_window(r);
          if (sw2.seq > expected) {
            if (token == 0) {
              // Gap before the open ack arrived (the ack was dropped):
              // we cannot resume yet, but the lost frame is still in the
              // server's replay buffer. Ignore everything past the gap
              // and keep re-opening until the re-sent ack lands — the
              // next gapped frame then resumes normally.
              ++empty_polls;
              if (empty_polls % resend_every == 0) send_open();
              break;
            }
            reconnect();  // gap: a downlink frame was lost
            break;
          }
          if (sw2.seq == expected) {
            ++expected;
            sink.window(std::move(sw2.window));
          }
          // Cumulative ack: also re-assures the server after a duplicate.
          conn.send(encode_credit(conn.id(), expected));
          break;
        }
        case svc_tag::trajectory_done: {
          seq_task_done td = read_trajectory_done(r);
          if (td.seq > expected) {
            if (token == 0) {  // pre-ack gap: see the window case
              ++empty_polls;
              if (empty_polls % resend_every == 0) send_open();
              break;
            }
            reconnect();
            break;
          }
          if (td.seq == expected) {
            ++expected;
            report.result.completions.push_back(td.done);
            sink.trajectory_done(td.done);
          }
          conn.send(encode_credit(conn.id(), expected));
          break;
        }
        case svc_tag::complete: {
          const run_complete c = read_complete(r);
          if (c.seq > expected) {
            // The stream ended but we missed frames. With a token,
            // resume; without one (the ack never arrived) re-open on the
            // same connection — the server re-attaches the finalized
            // session by connection id and replays tail + terminal.
            // Never accept a short stream.
            if (token != 0)
              reconnect();
            else
              send_open();
            break;
          }
          fin = c;
          complete_seen = true;
          break;
        }
        case svc_tag::error: {
          seq_error er = read_error(r);
          if (er.seq > expected) {
            if (token != 0)
              reconnect();  // collect the tail before surfacing the failure
            else
              send_open();
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
    report.result.sim_workers = ack.pool_workers;
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
