// Tests for the run server's resilience layer (PR 8): heartbeat liveness
// and the zombie reaper, checkpointed session recovery (engine-throw
// replay, resume-after-vanish), shedding at max_sessions, the seeded chaos
// matrix (drop/duplicate/delay on both directions plus an injected engine
// fault), and fuzz-style protocol hardening. The invariants under every
// fault: surviving sessions stream bit-identical windows, the quantum
// ledger balances exactly-once (executed == accepted + discarded), the
// terminal frame is the last downlink frame, and zombies release their
// leases.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cwcsim.hpp"
#include "dist/dist.hpp"
#include "models/models.hpp"
#include "serial_oracle.hpp"
#include "svc/svc.hpp"
#include "window_equality.hpp"

namespace {

using testing_windows::expect_bit_identical;

cwcsim::sim_config tiny_config() {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 8;
  cfg.t_end = 12.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 3.0;
  cfg.sim_workers = 2;
  cfg.stat_engines = 2;
  cfg.window_size = 4;
  cfg.window_slide = 4;
  cfg.kmeans_k = 0;
  cfg.seed = 20260808;
  return cfg;
}

/// Poll the server until the quantum ledger goes quiet, then assert the
/// exactly-once invariant.
void expect_ledger_balanced(svc::run_server& server) {
  svc::server_stats st = server.stats();
  for (int i = 0; i < 200; ++i) {
    const auto prev = st.quanta_executed;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    st = server.stats();
    if (st.quanta_executed == prev) break;
  }
  EXPECT_EQ(st.quanta_executed, st.quanta_accepted + st.quanta_discarded);
}

/// One raw protocol tenant's consumed stream: frames in sequence order,
/// duplicates dropped, cumulative acks sent, heartbeats on idle polls.
struct stream_state {
  std::vector<cwcsim::window_summary> windows;
  std::uint64_t completions = 0;
  std::uint64_t expected = 0;  ///< next stream seq to consume
  bool admitted = false;
  bool complete = false;
  svc::run_complete fin{};
  bool failed = false;
  std::string error;
};

/// Pump a downlink until the terminal frame, `min_consumed` stream frames
/// have been consumed, or `budget_s` elapses. Gaps (seq > expected) stop
/// the pump with failed=true — raw-client tests run without downlink
/// faults, so a gap is a real protocol violation.
void pump(svc::client_conn& conn, stream_state& st, double budget_s,
          std::uint64_t min_consumed = ~std::uint64_t{0}) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(budget_s));
  while (std::chrono::steady_clock::now() < deadline && !st.complete &&
         !st.failed && st.expected < min_consumed) {
    auto msg = conn.recv_for(0.02);
    if (!msg) {
      conn.send(svc::encode_ack(conn.id(), st.expected));
      continue;
    }
    dist::archive_reader r(*msg);
    switch (svc::read_frame_header(r)) {
      case svc::svc_tag::open_ok:
        st.admitted = true;
        break;
      case svc::svc_tag::open_error:
        st.failed = true;
        st.error = "open_error: " + svc::read_reason(r);
        break;
      case svc::svc_tag::window: {
        auto w = svc::read_window(r);
        if (w.seq > st.expected) {
          st.failed = true;
          st.error = "sequence gap on a lossless downlink";
          break;
        }
        if (w.seq == st.expected) {
          ++st.expected;
          st.windows.push_back(std::move(w.window));
        }
        conn.send(svc::encode_ack(conn.id(), st.expected));
        break;
      }
      case svc::svc_tag::trajectory_done: {
        const auto td = svc::read_trajectory_done(r);
        if (td.seq > st.expected) {
          st.failed = true;
          st.error = "sequence gap on a lossless downlink";
          break;
        }
        if (td.seq == st.expected) {
          ++st.expected;
          ++st.completions;
        }
        conn.send(svc::encode_ack(conn.id(), st.expected));
        break;
      }
      case svc::svc_tag::complete:
        st.fin = svc::read_complete(r);
        st.complete = true;
        break;
      case svc::svc_tag::error: {
        const auto e = svc::read_error(r);
        st.failed = true;
        st.error = e.reason;
        break;
      }
      default:
        break;
    }
  }
}

/// A session's first open on `conn`, named by the connection's own token.
svc::open_request make_open(const cwcsim::model_ref& m,
                            const svc::client_conn& conn,
                            const cwcsim::sim_config& cfg) {
  svc::open_request rq;
  rq.conn_id = conn.id();
  rq.token = conn.token();
  rq.cfg = cfg;
  rq.model_frame = dist::encode_model(m);
  return rq;
}

// ------------------------------ liveness ----------------------------------

TEST(Resilience, ReaperParksVanishedClientAndResumeIsBitExact) {
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = tiny_config();
  const auto batch = cwcsim::run(m, cfg).result;

  svc::svc_config sc;
  sc.pool_workers = 2;
  sc.window_credits = 4;
  sc.heartbeat_timeout_s = 0.3;
  sc.stall_grace_s = 5.0;
  sc.session_retention_s = 30.0;
  svc::run_server server(sc);

  const cwcsim::model_ref mref{&m, nullptr, nullptr};
  stream_state st;
  std::uint64_t token = 0;
  {
    auto conn = server.connect();
    token = conn.token();
    conn.send(svc::encode_open(make_open(mref, conn, cfg)));
    // Consume a little of the stream, then crash (no close frame).
    pump(conn, st, 5.0, 2);
    ASSERT_FALSE(st.failed) << st.error;
    ASSERT_TRUE(st.admitted);
    conn.abandon();
  }

  // The reaper notices the silence and parks the session recoverably,
  // releasing its scheduler slot — but keeping checkpoints + stream tail.
  svc::server_stats stats = server.stats();
  for (int i = 0; i < 500 && stats.sessions_reaped == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats = server.stats();
  }
  ASSERT_GE(stats.sessions_reaped, 1u) << "zombie session was never reaped";

  // Resume on a fresh connection: the server replays exactly the frames
  // we have not consumed and the merged stream is bit-exact.
  auto conn2 = server.connect();
  svc::open_request rq;
  rq.conn_id = conn2.id();
  rq.token = token;
  rq.next_seq = st.expected;
  conn2.send(svc::encode_open(rq));
  st.admitted = false;
  pump(conn2, st, 10.0);
  ASSERT_FALSE(st.failed) << st.error;
  ASSERT_TRUE(st.complete);
  EXPECT_TRUE(st.admitted);
  EXPECT_EQ(st.fin.seq, st.expected) << "terminal frame reports missed frames";
  EXPECT_EQ(st.completions, cfg.num_trajectories);
  expect_bit_identical(st.windows, batch.windows);

  expect_ledger_balanced(server);
  const auto fin = server.stats();
  EXPECT_GE(fin.sessions_resumed, 1u);
  EXPECT_EQ(fin.sessions_completed, 1u);
}

TEST(Resilience, ResumesBeforeReadingAnyFrame) {
  // The token comes with the connection, so a client that loses its first
  // connection before it read a single frame — not even the open ack —
  // still resumes its session on a fresh one, from sequence 0.
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = tiny_config();
  const auto want = oracle::serial_run(cwc::compiled_model::compile(m), cfg);

  svc::svc_config sc;
  sc.pool_workers = 2;
  sc.window_credits = 4;
  svc::run_server server(sc);

  const cwcsim::model_ref mref{&m, nullptr, nullptr};
  auto first = server.connect();
  const std::uint64_t token = first.token();
  first.send(svc::encode_open(make_open(mref, first, cfg)));
  first.abandon();

  auto conn = server.connect();
  auto rq = make_open(mref, conn, cfg);
  rq.token = token;
  conn.send(svc::encode_open(rq));
  stream_state st;
  pump(conn, st, 10.0);
  ASSERT_FALSE(st.failed) << st.error;
  ASSERT_TRUE(st.complete);
  EXPECT_EQ(st.fin.seq, st.expected);
  EXPECT_EQ(st.completions, cfg.num_trajectories);
  expect_bit_identical(st.windows, want.windows);

  expect_ledger_balanced(server);
  const auto stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_resumed, 1u);
}

TEST(Resilience, OpenNamingNoSessionItMayStartIsRefused) {
  // An unknown session starts only under the sending connection's own
  // token at sequence 0. Claiming to resume one, or opening under another
  // connection's token, gets open_error and admits nothing — and leaves
  // that token to the connection it was issued to.
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = tiny_config();
  const cwcsim::model_ref mref{&m, nullptr, nullptr};
  svc::run_server server;
  auto owner = server.connect();

  const auto refused = [&](svc::open_request rq, svc::client_conn& conn) {
    conn.send(svc::encode_open(rq));
    stream_state st;
    pump(conn, st, 5.0);
    EXPECT_FALSE(st.admitted);
    EXPECT_NE(st.error.find("open_error"), std::string::npos) << st.error;
  };
  {
    auto conn = server.connect();
    auto rq = make_open(mref, conn, cfg);
    rq.next_seq = 3;
    refused(rq, conn);
  }
  {
    auto conn = server.connect();
    auto rq = make_open(mref, conn, cfg);
    rq.token = owner.token();
    refused(rq, conn);
  }
  auto st = server.stats();
  EXPECT_EQ(st.sessions_opened, 0u);
  EXPECT_EQ(st.sessions_rejected, 2u);

  owner.send(svc::encode_open(make_open(mref, owner, cfg)));
  stream_state os;
  pump(owner, os, 10.0);
  ASSERT_FALSE(os.failed) << os.error;
  EXPECT_TRUE(os.complete);

  // A connection carries one session. Once it has resumed one, an open
  // starting another there is refused, though it names the connection's
  // own token.
  auto lost = server.connect();
  auto long_cfg = cfg;
  long_cfg.t_end = 500.0;
  const auto first = make_open(mref, lost, long_cfg);
  lost.send(svc::encode_open(first));
  lost.abandon();
  auto busy = server.connect();
  auto resume = make_open(mref, busy, long_cfg);
  resume.token = first.token;
  busy.send(svc::encode_open(resume));
  stream_state bs;
  pump(busy, bs, 5.0, 1);
  ASSERT_TRUE(bs.admitted) << bs.error;
  busy.send(svc::encode_open(make_open(mref, busy, cfg)));
  pump(busy, bs, 5.0);
  EXPECT_NE(bs.error.find("open_error"), std::string::npos) << bs.error;

  st = server.stats();
  EXPECT_EQ(st.sessions_opened, 2u);
  EXPECT_EQ(st.sessions_resumed, 1u);
  EXPECT_EQ(st.sessions_rejected, 3u);
}

TEST(Resilience, LocalModelOutlivesAReapedHalfOpenSession) {
  // A session reaped at zero retention is gone for good, so its client
  // opens a new one on a fresh connection, naming the same local model.
  // The registration must outlive the first session.
  cwc::reaction_network local;
  const auto a = local.declare_species("A");
  local.set_initial(a, 40);
  local.add_reaction("opaque-decay", {{a, 1}}, {},
                     cwc::rate_law::custom([](const cwc::rate_ctx& ctx) {
                       return 0.4 * ctx.combinations;
                     }));
  const auto cfg = tiny_config();
  const auto batch = cwcsim::run(local, cfg).result;

  svc::svc_config sc;
  sc.pool_workers = 2;
  sc.window_credits = 4;
  sc.heartbeat_timeout_s = 0.3;
  sc.session_retention_s = 0.0;  // a reaped session retires at once
  svc::run_server server(sc);

  svc::open_request rq;
  rq.cfg = cfg;
  rq.local_model =
      server.register_local_model(cwc::compiled_model::compile(local));
  {
    // The open is admitted, but the client never reads the ack and
    // never speaks again: the reaper retires the session.
    auto conn = server.connect();
    rq.conn_id = conn.id();
    rq.token = conn.token();
    conn.send(svc::encode_open(rq));
    svc::server_stats st = server.stats();
    for (int i = 0; i < 500 && st.sessions_reaped == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      st = server.stats();
    }
    ASSERT_EQ(st.sessions_opened, 1u);
    ASSERT_GE(st.sessions_reaped, 1u) << "half-open session never reaped";
    conn.abandon();
  }

  auto conn2 = server.connect();
  rq.conn_id = conn2.id();
  rq.token = conn2.token();
  conn2.send(svc::encode_open(rq));
  stream_state st;
  pump(conn2, st, 10.0);
  ASSERT_FALSE(st.failed) << st.error;
  ASSERT_TRUE(st.complete);
  EXPECT_EQ(st.completions, cfg.num_trajectories);
  expect_bit_identical(st.windows, batch.windows);

  server.release_local_model(rq.local_model);
  EXPECT_EQ(server.stats().local_models, 0u);
}

TEST(Resilience, VanishedClientLeavesNoDownlink) {
  // A client that vanishes without a close frame and never resumes: its
  // connection leaves the registry once the reaped session's record
  // expires, or, at zero retention, once the session is torn down.
  const auto m = models::make_neurospora_cwc({});
  auto cfg = tiny_config();
  cfg.t_end = 600.0;  // still running when the record expires
  for (const double retention : {0.1, 0.0}) {
    SCOPED_TRACE(retention);
    svc::svc_config sc;
    sc.pool_workers = 2;
    sc.heartbeat_timeout_s = 0.1;
    sc.session_retention_s = retention;
    svc::run_server server(sc);
    {
      auto conn = server.connect();
      conn.send(svc::encode_open(
          make_open(cwcsim::model_ref{&m, nullptr, nullptr}, conn, cfg)));
      stream_state st;
      pump(conn, st, 5.0, 1);
      ASSERT_FALSE(st.failed) << st.error;
      ASSERT_EQ(st.expected, 1u);
      conn.abandon();
    }
    const std::uint64_t expired = retention > 0.0 ? 1 : 0;
    svc::server_stats stats = server.stats();
    for (int i = 0; i < 400 && (stats.connections != 0 ||
                                stats.sessions_expired < expired);
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      stats = server.stats();
    }
    EXPECT_EQ(stats.sessions_reaped, 1u);
    EXPECT_EQ(stats.sessions_expired, expired);
    EXPECT_EQ(stats.connections, 0u);
  }
}

TEST(Resilience, WedgedSubscriberIsReapedDespiteHeartbeats) {
  // A client that stays chatty (heartbeats) but stops CONSUMING is a
  // wedged subscriber: liveness alone must not keep it pinned once its
  // replay window has been full past the grace period.
  const auto m = models::make_neurospora_cwc({});
  auto cfg = tiny_config();
  cfg.t_end = 60.0;  // long enough that the stream saturates the window

  svc::svc_config sc;
  sc.pool_workers = 2;
  sc.window_credits = 2;
  sc.heartbeat_timeout_s = 10.0;  // liveness reaping effectively off
  sc.stall_grace_s = 0.2;
  sc.session_retention_s = 30.0;
  svc::run_server server(sc);

  auto conn = server.connect();
  conn.send(svc::encode_open(
      make_open(cwcsim::model_ref{&m, nullptr, nullptr}, conn, cfg)));

  // Heartbeat dutifully, never ack anything.
  svc::server_stats stats = server.stats();
  for (int i = 0; i < 500 && stats.sessions_reaped == 0; ++i) {
    conn.send(svc::encode_ack(conn.id(), 0));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats = server.stats();
  }
  EXPECT_GE(stats.sessions_reaped, 1u)
      << "a wedged subscriber must be reaped even while heartbeating";
  expect_ledger_balanced(server);
}

TEST(Resilience, DefaultClientHeartbeatsInsideTheServerTimeout) {
  // The client heartbeats every min(0.25 s, a quarter of the server's
  // heartbeat timeout). Three windows over the whole run leave the
  // downlink quiet for long stretches, so only the heartbeat keeps a
  // default client's lease fresh inside a 0.2 s timeout.
  const auto m = models::make_neurospora_cwc({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 32;
  cfg.t_end = 600.0;
  cfg.quantum = 5.0;
  cfg.window_size = 400;
  cfg.window_slide = 400;
  cfg.kmeans_k = 0;
  const auto want = cwcsim::run(m, cfg, cwcsim::multicore{}).result;

  svc::svc_config sc;
  sc.pool_workers = 2;
  sc.heartbeat_timeout_s = 0.2;
  svc::run_server server(sc);
  const auto got = cwcsim::run(m, cfg, cwcsim::service{&server});
  expect_bit_identical(got.result.windows, want.windows);
  EXPECT_EQ(server.stats().sessions_reaped, 0u);
}

// ------------------------------ recovery ----------------------------------

TEST(Resilience, EngineThrowReplaysCheckpointBitExact) {
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = tiny_config();
  const auto batch = cwcsim::run(m, cfg).result;

  svc::svc_config sc;
  sc.pool_workers = 2;
  sc.chaos.engine_throw_at_quantum = 1;  // fault after one committed quantum
  svc::run_server server(sc);

  const auto report = cwcsim::run(m, cfg, cwcsim::service{&server});
  expect_bit_identical(report.result.windows, batch.windows);
  EXPECT_EQ(report.result.completions.size(), cfg.num_trajectories);

  expect_ledger_balanced(server);
  const auto st = server.stats();
  EXPECT_GE(st.quanta_retried, 1u) << "the injected fault was never retried";
  EXPECT_GE(st.quanta_replayed, 1u)
      << "recovery should have replayed the checkpointed prefix";
  EXPECT_EQ(st.sessions_completed, 1u);
}

TEST(Resilience, EngineFailingBeyondRetryBudgetFailsOnlyItsTenant) {
  // A model whose engine throws on EVERY execution exhausts the retry
  // budget; its session gets a typed error and a co-tenant running a
  // healthy model is untouched.
  cwc::reaction_network sick;
  const auto a = sick.declare_species("A");
  sick.set_initial(a, 50);
  sick.add_reaction("doomed", {{a, 1}}, {},
                    cwc::rate_law::custom([](const cwc::rate_ctx&) -> double {
                      throw std::runtime_error("injected permanent fault");
                    }));

  const auto healthy = models::make_neurospora_cwc({});
  const auto cfg = tiny_config();
  const auto batch = cwcsim::run(healthy, cfg).result;

  svc::svc_config sc;
  sc.pool_workers = 2;
  svc::run_server server(sc);

  EXPECT_THROW(cwcsim::run(sick, cfg, cwcsim::service{&server}),
               std::runtime_error);
  const auto report = cwcsim::run(healthy, cfg, cwcsim::service{&server});
  expect_bit_identical(report.result.windows, batch.windows);

  expect_ledger_balanced(server);
  const auto st = server.stats();
  EXPECT_GE(st.quanta_retried, 1u);
  EXPECT_EQ(st.sessions_cancelled, 1u);  // the failed tenant
  EXPECT_EQ(st.sessions_completed, 1u);  // the healthy one
}

TEST(Resilience, DuplicateOpenIsIdempotent) {
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = tiny_config();
  svc::run_server server;

  auto conn = server.connect();
  const auto open =
      svc::encode_open(make_open(cwcsim::model_ref{&m, nullptr, nullptr},
                                 conn, cfg));
  conn.send(open);
  conn.send(open);  // the retry a client fires when the ack seems lost

  stream_state st;
  pump(conn, st, 10.0);
  ASSERT_FALSE(st.failed) << st.error;
  ASSERT_TRUE(st.complete);
  EXPECT_EQ(st.completions, cfg.num_trajectories);
  EXPECT_EQ(server.stats().sessions_opened, 1u)
      << "a duplicated open must not admit a second session";
}

// ------------------------------ shedding ----------------------------------

TEST(Resilience, WatermarkShedsThenAdmitsWhenLoadClears) {
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = tiny_config();
  const auto batch = cwcsim::run(m, cfg).result;

  svc::svc_config sc;
  sc.pool_workers = 2;
  sc.max_sessions = 1;              // shed at one live session
  svc::run_server server(sc);

  // Tenant A occupies the only slot; tenant B is shed with retry_after,
  // backs off, and is admitted once A completes — no hard failure.
  const cwcsim::service be{&server};
  cwcsim::run_report rep_a, rep_b;
  std::thread ta([&] { rep_a = cwcsim::run(m, cfg, be); });
  std::thread tb([&] { rep_b = cwcsim::run(m, cfg, be); });
  ta.join();
  tb.join();

  expect_bit_identical(rep_a.result.windows, batch.windows);
  expect_bit_identical(rep_b.result.windows, batch.windows);
  const auto st = server.stats();
  EXPECT_EQ(st.sessions_completed, 2u);
  // One of the two must have been shed at least once (they cannot both
  // have been first), and shedding is typed, not a rejection.
  EXPECT_GE(st.sessions_shed, 1u);
  EXPECT_EQ(st.sessions_rejected, 0u);
  expect_ledger_balanced(server);
}

// ----------------------------- chaos matrix -------------------------------

struct chaos_case {
  const char* name;
  svc::chaos_params ch;
  bool vanishing_raw_tenant = false;
};

std::vector<chaos_case> chaos_matrix() {
  std::vector<chaos_case> cases;
  {
    chaos_case c{"ingress-drop", {}, false};
    c.ch.ingress_drop_prob = 0.05;
    cases.push_back(c);
  }
  {
    chaos_case c{"downlink-drop", {}, false};
    c.ch.downlink_drop_prob = 0.05;
    cases.push_back(c);
  }
  {
    chaos_case c{"duplicate-both", {}, false};
    c.ch.ingress_dup_prob = 0.10;
    c.ch.downlink_dup_prob = 0.10;
    cases.push_back(c);
  }
  {
    chaos_case c{"delay-both", {}, false};
    c.ch.ingress_delay_s = 0.001;
    c.ch.downlink_delay_s = 0.001;
    cases.push_back(c);
  }
  {
    chaos_case c{"engine-throw", {}, false};
    c.ch.engine_throw_at_quantum = 2;
    cases.push_back(c);
  }
  {
    chaos_case c{"client-vanish", {}, true};
    cases.push_back(c);
  }
  {
    chaos_case c{"kitchen-sink", {}, true};
    c.ch.ingress_drop_prob = 0.03;
    c.ch.downlink_drop_prob = 0.03;
    c.ch.ingress_dup_prob = 0.05;
    c.ch.downlink_dup_prob = 0.05;
    c.ch.ingress_delay_s = 0.0005;
    c.ch.downlink_delay_s = 0.0005;
    c.ch.engine_throw_at_quantum = 1;
    cases.push_back(c);
  }
  return cases;
}

TEST(Chaos, MatrixSurvivorsBitExactLedgerBalanced) {
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = tiny_config();
  const auto batch = cwcsim::run(m, cfg).result;
  const cwcsim::model_ref mref{&m, nullptr, nullptr};

  for (const auto& c : chaos_matrix()) {
    SCOPED_TRACE(c.name);
    svc::svc_config sc;
    sc.pool_workers = 2;
    sc.window_credits = 4;
    sc.heartbeat_timeout_s = 0.3;
    sc.stall_grace_s = 2.0;
    sc.session_retention_s = 30.0;
    sc.chaos = c.ch;
    svc::run_server server(sc);

    // The vanishing tenant: opens a run, consumes a bit, crashes. Its
    // zombie must be reaped and its leases released without disturbing
    // the surviving tenants.
    if (c.vanishing_raw_tenant) {
      auto ghost = server.connect();
      auto gcfg = cfg;
      gcfg.t_end = 120.0;  // long campaign it will abandon
      ghost.send(svc::encode_open(make_open(mref, ghost, gcfg)));
      stream_state gs;
      pump(ghost, gs, 5.0, 1);
      ghost.abandon();
    }

    // Two driver tenants ride the faulty links end to end.
    const cwcsim::service be{&server};
    cwcsim::run_report rep_a, rep_b;
    std::thread ta([&] { rep_a = cwcsim::run(m, cfg, be); });
    std::thread tb([&] { rep_b = cwcsim::run(m, cfg, be); });
    ta.join();
    tb.join();

    // Survivors: complete, in order, bit-identical with the fault-free
    // pipeline. (The driver throws on a gap it cannot resume and on a
    // terminal frame that is not last-with-matching-seq, so completion
    // itself asserts stream integrity.)
    expect_bit_identical(rep_a.result.windows, batch.windows);
    expect_bit_identical(rep_b.result.windows, batch.windows);
    EXPECT_EQ(rep_a.result.completions.size(), cfg.num_trajectories);
    EXPECT_EQ(rep_b.result.completions.size(), cfg.num_trajectories);

    expect_ledger_balanced(server);
    auto st = server.stats();
    EXPECT_EQ(st.sessions_completed, 2u);
    if (c.vanishing_raw_tenant) {
      // The fast driver runs may finish inside the ghost's heartbeat
      // timeout; give the reaper its window.
      for (int i = 0; i < 500 && st.sessions_reaped == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        st = server.stats();
      }
      EXPECT_GE(st.sessions_reaped, 1u) << "the ghost was never reaped";
      expect_ledger_balanced(server);
    }
    if (c.ch.engine_throw_at_quantum != svc::chaos_params::no_quantum) {
      EXPECT_GE(st.quanta_retried, 1u);
    }
    if (std::string(c.name) == "downlink-drop") {
      // This row's seeded streams drop stream frames, and the driver heals
      // each gap by resuming its session by token on a fresh connection.
      EXPECT_GE(st.sessions_resumed, 1u);
    }
  }
}

TEST(Chaos, ReconnectingTenantsLeaveNoDownlinks) {
  // A dropped downlink frame makes the driver abandon its connection (no
  // close frame) and resume on a fresh one. The server must drop the
  // abandoned downlink from its registry when the session moves, or a
  // long-lived server accumulates one per reconnect.
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = tiny_config();
  svc::svc_config sc;
  sc.session_retention_s = 0.2;
  sc.chaos.downlink_drop_prob = 0.1;
  svc::run_server server(sc);
  const cwcsim::service be{&server};

  constexpr int kTenants = 40;
  for (int i = 0; i < kTenants; ++i) {
    const auto r = cwcsim::run(m, cfg, be);
    ASSERT_EQ(r.result.completions.size(), cfg.num_trajectories);
  }
  // Let the sessions retire, the retention period pass and the last close
  // frames reach the dispatcher.
  svc::server_stats st = server.stats();
  for (int i = 0; i < 400 && st.connections != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    st = server.stats();
  }
  EXPECT_EQ(st.sessions_completed, static_cast<std::uint64_t>(kTenants));
  EXPECT_GE(st.sessions_resumed, 1u) << "no tenant reconnected";
  EXPECT_EQ(st.connections, 0u);
}

TEST(Chaos, LostOpenAckStillReportsThePoolWidth) {
  // The report's sim_workers is the server's pool width, read from its
  // config: a session whose only open_ok is dropped on the downlink still
  // reports both workers, not 0.
  const auto net = models::make_birth_death({});
  auto cfg = tiny_config();
  cfg.num_trajectories = 1;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    svc::svc_config sc;
    sc.pool_workers = 2;
    sc.chaos.downlink_drop_prob = 0.2;
    sc.chaos.seed = seed;
    svc::run_server server(sc);
    const auto r = cwcsim::run(net, cfg, cwcsim::service{&server});
    EXPECT_EQ(r.result.completions.size(), 1u);
    EXPECT_EQ(r.result.sim_workers, 2u);
  }
}

// --------------------------- protocol hardening ---------------------------

TEST(Hardening, MalformedUplinkFramesNeverKillTheServer) {
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = tiny_config();
  const auto batch = cwcsim::run(m, cfg).result;

  svc::run_server server;
  auto conn = server.connect();

  const auto valid_open =
      svc::encode_open(make_open(cwcsim::model_ref{&m, nullptr, nullptr},
                                 conn, cfg));
  // Truncations at every prefix of the header and a sweep through the
  // payload: all must be dropped without wedging the dispatcher.
  for (std::size_t len = 0; len < std::min<std::size_t>(valid_open.size(), 64);
       ++len)
    conn.send(dist::byte_buffer(valid_open.begin(),
                                valid_open.begin() + static_cast<long>(len)));
  {
    // Unknown tag, valid version byte.
    auto f = svc::encode_cancel(conn.id());
    f[0] = std::byte{0xEE};
    conn.send(f);
  }
  {
    // Foreign schema version.
    auto f = svc::encode_ack(conn.id(), 1);
    f[1] = std::byte{0x7F};
    conn.send(f);
  }
  {
    // Oversized interior length: corrupt the model-frame length field so
    // the reader would run far past the buffer (archive bounds-check).
    auto f = valid_open;
    for (std::size_t i = 2; i + 8 < f.size(); ++i) f[i] = std::byte{0xFF};
    conn.send(f);
  }
  // Flow/teardown frames for sessions that do not exist.
  conn.send(svc::encode_ack(9999, 123));
  conn.send(svc::encode_ack(9999, ~std::uint64_t{0}));
  conn.send(svc::encode_cancel(9999));
  conn.send(svc::encode_close(9999));
  conn.send(svc::encode_close(9999));  // duplicate terminal uplink

  // After all that garbage the server still serves a clean run.
  const auto report = cwcsim::run(m, cfg, cwcsim::service{&server});
  expect_bit_identical(report.result.windows, batch.windows);
  expect_ledger_balanced(server);
  EXPECT_EQ(server.stats().sessions_completed, 1u);
}

TEST(Hardening, TruncatedDownlinkFramesThrowCleanly) {
  // Client-side decoders on truncated/corrupt frames: typed exceptions,
  // never hangs or reads past the buffer (ASan/UBSan patrol this test).
  cwcsim::window_summary w;
  w.first_sample = 3;
  const std::vector<dist::byte_buffer> frames = {
      svc::encode_window(5, w),
      svc::encode_complete({9, false, 2, 7}),
      svc::encode_error(4, "boom"),
      svc::encode_open_ok(),
      svc::encode_retry_after("busy"),
  };
  for (const auto& f : frames) {
    for (std::size_t len = 0; len < f.size(); ++len) {
      const dist::byte_buffer cut(f.begin(),
                                  f.begin() + static_cast<long>(len));
      EXPECT_THROW(
          {
            dist::archive_reader r(cut);
            switch (svc::read_frame_header(r)) {
              case svc::svc_tag::window:
                svc::read_window(r);
                break;
              case svc::svc_tag::complete:
                svc::read_complete(r);
                break;
              case svc::svc_tag::error:
                svc::read_error(r);
                break;
              case svc::svc_tag::retry_after:
                svc::read_reason(r);
                break;
              default:
                throw std::runtime_error("unexpected tag survived");
            }
          },
          std::exception);
    }
  }
}

// --------------------------------- soak -----------------------------------

TEST(Chaos, SoakMultiTenantUnderSustainedFaults) {
  // Opt-in long-running soak: CWCSIM_SOAK_S=60 (CI) turns it on. Eight
  // tenants loop full runs under sustained transport faults with one
  // injected engine throw and one vanishing client, for the requested
  // wall time; every completed run must be bit-exact and the ledger must
  // balance at the end.
  const char* soak = std::getenv("CWCSIM_SOAK_S");
  if (soak == nullptr) GTEST_SKIP() << "set CWCSIM_SOAK_S to run the soak";
  const double budget_s = std::atof(soak);

  const auto m = models::make_neurospora_cwc({});
  const auto cfg = tiny_config();
  const auto batch = cwcsim::run(m, cfg).result;
  const cwcsim::model_ref mref{&m, nullptr, nullptr};

  svc::svc_config sc;
  sc.pool_workers = 4;
  sc.window_credits = 4;
  sc.heartbeat_timeout_s = 0.3;
  sc.stall_grace_s = 2.0;
  sc.session_retention_s = 5.0;
  sc.chaos.ingress_drop_prob = 0.05;
  sc.chaos.downlink_drop_prob = 0.05;
  sc.chaos.ingress_dup_prob = 0.05;
  sc.chaos.downlink_dup_prob = 0.05;
  sc.chaos.engine_throw_at_quantum = 1;
  svc::run_server server(sc);

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(budget_s));

  // One vanishing client per soak: open a long run, drop it.
  {
    auto ghost = server.connect();
    auto gcfg = cfg;
    gcfg.t_end = 1e6;
    ghost.send(svc::encode_open(make_open(mref, ghost, gcfg)));
    stream_state gs;
    pump(ghost, gs, 5.0, 1);
    ghost.abandon();
  }

  std::atomic<std::uint64_t> runs{0};
  std::atomic<bool> ok{true};
  std::mutex err_mu;
  std::string first_error;
  std::vector<std::thread> tenants;
  for (int i = 0; i < 8; ++i)
    tenants.emplace_back([&] {
      const cwcsim::service be{&server};
      while (std::chrono::steady_clock::now() < deadline && ok.load()) {
        try {
          const auto rep = cwcsim::run(m, cfg, be);
          if (rep.result.windows.size() != batch.windows.size() ||
              rep.result.completions.size() != cfg.num_trajectories) {
            const std::lock_guard<std::mutex> lk(err_mu);
            if (first_error.empty()) first_error = "short stream";
            ok.store(false);
          }
          ++runs;
        } catch (const std::exception& e) {
          const std::lock_guard<std::mutex> lk(err_mu);
          if (first_error.empty()) first_error = e.what();
          ok.store(false);
        }
      }
    });
  for (auto& t : tenants) t.join();

  EXPECT_TRUE(ok.load()) << "a soak tenant failed: " << first_error;
  EXPECT_GT(runs.load(), 0u);
  expect_ledger_balanced(server);
  const auto st = server.stats();
  EXPECT_GE(st.sessions_reaped, 1u);
  EXPECT_EQ(st.quanta_executed, st.quanta_accepted + st.quanta_discarded);
}

}  // namespace
