// Tests for the simulation-as-a-service layer (src/svc/): the session
// frame protocol, the compiled-model cache, and the multi-tenant run
// server — compile-once sharing across tenants, hostile model frames,
// credit-based backpressure isolation, fair completion under contention,
// and teardown accounting. A lone tenant's run against the serial oracle
// is conformance_test's service rows.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cwcsim.hpp"
#include "dist/dist.hpp"
#include "models/models.hpp"
#include "svc/svc.hpp"
#include "window_equality.hpp"

namespace {

using testing_windows::expect_bit_identical;

cwcsim::sim_config small_config() {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 12;
  cfg.t_end = 12.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 3.0;
  cfg.sim_workers = 2;
  cfg.stat_engines = 2;
  cfg.window_size = 5;
  cfg.window_slide = 5;
  cfg.kmeans_k = 2;
  cfg.seed = 4321;
  return cfg;
}

// ----------------------------- frame protocol -----------------------------

TEST(SvcProto, OpenFrameRoundTrips) {
  const auto net = models::make_birth_death({});
  svc::open_request rq;
  rq.conn_id = 42;
  rq.weight = 2.5;
  rq.cfg = small_config();
  rq.model_frame = dist::encode_model(cwcsim::model_ref{nullptr, &net, nullptr});
  rq.local_model = 0;

  const auto frame = svc::encode_open(rq);
  dist::archive_reader r(frame);
  ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::open);
  const auto back = svc::read_open(r);
  EXPECT_EQ(back.conn_id, rq.conn_id);
  EXPECT_EQ(back.weight, rq.weight);
  EXPECT_EQ(back.model_frame, rq.model_frame);
  EXPECT_TRUE(r.exhausted());
  // The whole config, so a field the codec drops fails here.
  EXPECT_EQ(back.cfg, rq.cfg);

  // The decoded model compiles into a behaviourally identical artifact.
  const auto cm = dist::decode_model(back.model_frame);
  EXPECT_FALSE(cm->is_tree());
}

TEST(SvcProto, ControlAndTerminalFramesRoundTrip) {
  {
    // The cumulative ack, which is also the heartbeat.
    const auto f = svc::encode_ack(7, 3);
    dist::archive_reader r(f);
    ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::ack);
    const auto g = svc::read_ack(r);
    EXPECT_EQ(g.conn_id, 7u);
    EXPECT_EQ(g.consumed_total, 3u);
  }
  {
    const auto f = svc::encode_cancel(9);
    dist::archive_reader r(f);
    ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::cancel);
    EXPECT_EQ(svc::read_conn_id(r), 9u);
  }
  {
    // open_ok carries no payload: the client reads the pool width from
    // the server's config.
    const auto f = svc::encode_open_ok();
    dist::archive_reader r(f);
    ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::open_ok);
    EXPECT_TRUE(r.exhausted());
  }
  {
    // retry_after carries only its reason: the backoff is the client's.
    const auto f = svc::encode_retry_after("session watermark reached");
    dist::archive_reader r(f);
    ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::retry_after);
    EXPECT_EQ(svc::read_reason(r), "session watermark reached");
    EXPECT_TRUE(r.exhausted());
  }
  {
    svc::run_complete c;
    c.seq = 77;
    c.stopped = true;
    c.trajectories = 5;
    c.quanta = 99;
    const auto f = svc::encode_complete(c);
    dist::archive_reader r(f);
    ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::complete);
    const auto b = svc::read_complete(r);
    EXPECT_EQ(b.seq, 77u);
    EXPECT_TRUE(b.stopped);
    EXPECT_EQ(b.trajectories, 5u);
    EXPECT_EQ(b.quanta, 99u);
  }
  {
    const auto f = svc::encode_error(13, "engine exploded");
    dist::archive_reader r(f);
    ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::error);
    const auto e = svc::read_error(r);
    EXPECT_EQ(e.seq, 13u);
    EXPECT_EQ(e.reason, "engine exploded");
  }
}

TEST(SvcProto, OpenResumeFieldsRoundTrip) {
  svc::open_request rq;
  rq.conn_id = 6;
  rq.token = 0xFEEDFACEULL;
  rq.next_seq = 321;
  rq.cfg = small_config();
  rq.local_model = 2;
  const auto f = svc::encode_open(rq);
  dist::archive_reader r(f);
  ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::open);
  const auto back = svc::read_open(r);
  EXPECT_EQ(back.token, 0xFEEDFACEULL);
  EXPECT_EQ(back.next_seq, 321u);
  EXPECT_EQ(back.local_model, 2u);
  EXPECT_TRUE(back.model_frame.empty());
}

TEST(SvcProto, WindowFrameRoundTripsBitExact) {
  // A window summary with every field populated, shipped and restored.
  cwcsim::window_summary s;
  s.first_sample = 40;
  stats::cut_summary cut;
  cut.sample_index = 41;
  cut.time = 20.5;
  stats::welford w1;
  w1.add(1.0);
  w1.add(2.5);
  w1.add(-3.25);
  cut.moments = {w1, stats::welford{}};
  cut.medians = {1.0, 0.0};
  cut.clusters.centroids = {{1.0, 2.0}, {3.0, 4.0}};
  cut.clusters.assignment = {0, 1, 1};
  cut.clusters.sizes = {1, 2};
  cut.clusters.inertia = 0.125;
  cut.clusters.iterations = 3;
  s.cuts.push_back(cut);

  const auto f = svc::encode_window(29, s);
  dist::archive_reader r(f);
  ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::window);
  const auto back = svc::read_window(r);
  EXPECT_EQ(back.seq, 29u);
  expect_bit_identical({back.window}, {s});
  EXPECT_EQ(back.window.cuts[0].clusters.iterations, 3u);
}

TEST(SvcProto, ForeignSchemaVersionRejected) {
  // A frame of the previous schema (6) would decode misaligned, so it is
  // refused whole, like a foreign one.
  ASSERT_EQ(dist::svc_frame_version, 7u);
  for (const std::uint8_t version : {0x7F, 6}) {
    auto f = svc::encode_ack(1, 1);
    // Byte 0 is the tag; byte 1 the schema version (dist/schema.hpp).
    f[1] = std::byte{version};
    dist::archive_reader r(f);
    EXPECT_THROW(svc::read_frame_header(r), dist::schema_mismatch_error);
  }
}

TEST(SvcProto, UnknownTagRejected) {
  auto f = svc::encode_ack(1, 1);
  f[0] = std::byte{0xEE};
  dist::archive_reader r(f);
  EXPECT_THROW(svc::read_frame_header(r), std::runtime_error);
}

// --------------------------- compiled-model cache -------------------------

TEST(ModelCache, SharesOneCompilePerDistinctModel) {
  const auto net = models::make_birth_death({});
  const auto lv = models::make_lotka_volterra({});
  const auto f1 =
      dist::encode_model(cwcsim::model_ref{nullptr, &net, nullptr});
  const auto f2 = dist::encode_model(cwcsim::model_ref{nullptr, &lv, nullptr});
  ASSERT_NE(dist::model_fingerprint(f1), dist::model_fingerprint(f2));
  // Deterministic encoding: the same model fingerprints identically.
  EXPECT_EQ(dist::model_fingerprint(f1),
            dist::model_fingerprint(
                dist::encode_model(cwcsim::model_ref{nullptr, &net, nullptr})));

  svc::model_cache cache;
  bool hit = true;
  const auto a1 = cache.get_or_compile(f1, &hit);
  EXPECT_FALSE(hit);
  const auto a2 = cache.get_or_compile(f1, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a1.get(), a2.get());  // the SAME artifact, not an equal one
  const auto b1 = cache.get_or_compile(f2, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(a1.get(), b1.get());

  const auto st = cache.stats();
  EXPECT_EQ(st.compiles, 2u);
  EXPECT_EQ(st.hits, 1u);
}

TEST(ModelCache, LruBoundEvictsColdUnpinnedEntriesOnly) {
  // Three distinct models (distinct birth-death rates encode distinctly).
  const auto net_a = models::make_birth_death({});
  const auto net_b = models::make_birth_death({60.0, 1.0, 0});
  const auto net_c = models::make_birth_death({70.0, 1.0, 0});
  const auto fa = dist::encode_model(cwcsim::model_ref{nullptr, &net_a, nullptr});
  const auto fb = dist::encode_model(cwcsim::model_ref{nullptr, &net_b, nullptr});
  const auto fc = dist::encode_model(cwcsim::model_ref{nullptr, &net_c, nullptr});

  svc::model_cache cache(2);
  cache.get_or_compile(fa);  // artifact dropped: unpinned in the cache
  {
    // Touch A so B is the LRU entry when C arrives.
    bool hit = false;
    cache.get_or_compile(fb);
    cache.get_or_compile(fa, &hit);
    EXPECT_TRUE(hit);
  }
  cache.get_or_compile(fc);  // over the bound: evicts cold, unpinned B
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  {
    bool hit = true;
    cache.get_or_compile(fa, &hit);
    EXPECT_TRUE(hit) << "the recently-used entry must have survived";
    cache.get_or_compile(fb, &hit);
    EXPECT_FALSE(hit) << "the evicted entry recompiles";
  }
  EXPECT_EQ(cache.stats().compiles, 4u);

  // Pinning: a live session's shared_ptr protects its model. With every
  // entry pinned the cache exceeds its bound rather than evict.
  svc::model_cache small(1);
  const auto pinned_a = small.get_or_compile(fa);
  const auto pinned_b = small.get_or_compile(fb);
  EXPECT_EQ(small.size(), 2u);  // nothing evictable: over bound by design
  EXPECT_EQ(small.stats().evictions, 0u);
  // Releasing the pins makes both evictable; the next insert trims the
  // cache back under its bound.
  // (Copies die here; the cache's shared_ptr is the only reference left.)
  const auto use_a = pinned_a.get();
  EXPECT_NE(use_a, nullptr);
}

TEST(ModelCache, ReleasedPinsAreTrimmedByNextInsert) {
  const auto net_a = models::make_birth_death({});
  const auto net_b = models::make_birth_death({60.0, 1.0, 0});
  const auto net_c = models::make_birth_death({70.0, 1.0, 0});
  const auto fa = dist::encode_model(cwcsim::model_ref{nullptr, &net_a, nullptr});
  const auto fb = dist::encode_model(cwcsim::model_ref{nullptr, &net_b, nullptr});
  const auto fc = dist::encode_model(cwcsim::model_ref{nullptr, &net_c, nullptr});

  svc::model_cache cache(1);
  {
    const auto pin_a = cache.get_or_compile(fa);
    const auto pin_b = cache.get_or_compile(fb);
    EXPECT_EQ(cache.size(), 2u);  // both pinned, bound exceeded
  }
  cache.get_or_compile(fc);  // pins released: trim back to the bound
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

// ------------------------------- run server -------------------------------

TEST(Service, EightTenantsOneCompileEveryTenantFinishes) {
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = small_config();
  const auto batch = cwcsim::run(m, cfg).result;

  svc::svc_config sc;
  sc.pool_workers = 4;
  svc::run_server server(sc);

  constexpr std::size_t kTenants = 8;
  std::vector<cwcsim::run_report> reports(kTenants);
  std::vector<std::thread> tenants;
  tenants.reserve(kTenants);
  for (std::size_t i = 0; i < kTenants; ++i)
    tenants.emplace_back([&, i] {
      reports[i] = cwcsim::run(m, cfg, cwcsim::service{&server});
    });
  for (auto& t : tenants) t.join();

  // Every tenant finished (no starvation) with the full bit-exact stream.
  for (const auto& rep : reports) {
    EXPECT_EQ(rep.result.completions.size(), cfg.num_trajectories);
    expect_bit_identical(rep.result.windows, batch.windows);
  }

  // Eight concurrent opens of the same model: exactly ONE compile.
  const auto st = server.stats();
  EXPECT_EQ(st.sessions_opened, kTenants);
  EXPECT_EQ(st.sessions_completed, kTenants);
  EXPECT_EQ(st.cache.compiles, 1u);
  EXPECT_EQ(st.cache.hits, kTenants - 1u);
  EXPECT_EQ(st.quanta_executed, st.quanta_accepted + st.quanta_discarded);
  EXPECT_EQ(st.quanta_discarded, 0u);
}

TEST(Service, SlowSubscriberThrottlesOnlyItself) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.kmeans_k = 0;
  auto slow_cfg = cfg;
  slow_cfg.t_end = 48.0;  // ~4x the windows of the fast tenant
  slow_cfg.window_size = 2;
  slow_cfg.window_slide = 2;

  svc::svc_config sc;
  sc.pool_workers = 2;
  sc.window_credits = 2;
  svc::run_server server(sc);
  const auto batch_fast = cwcsim::run(m, cfg).result;
  const auto batch_slow = cwcsim::run(m, slow_cfg).result;

  std::atomic<std::uint64_t> slow_completions{0};

  // The slow tenant: a subscriber that naps per window behind the tiny
  // credit window, so its pending queue saturates and the scheduler parks
  // it.
  auto slow = cwcsim::run_builder()
                  .model(m)
                  .config(slow_cfg)
                  .backend(cwcsim::service{&server})
                  .open();
  slow.on_window([&](const cwcsim::window_summary&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  slow.on_trajectory_done(
      [&](const cwcsim::task_done&) { ++slow_completions; });
  slow.start();

  // The fast co-tenant starts second and must finish first by a wide
  // margin: the slow subscriber's stalls (~1s of naps across its ~48
  // windows, with the scheduler parking it at 2 pending windows) must not
  // hold the shared pool. Deliberately lenient — no wall-clock ratios —
  // so the assertion stays solid under sanitizers and loaded CI.
  auto fast = cwcsim::run_builder()
                  .model(m)
                  .config(cfg)
                  .backend(cwcsim::service{&server})
                  .open();
  const auto fast_report = fast.wait();
  EXPECT_LT(slow_completions.load(), slow_cfg.num_trajectories)
      << "the throttled tenant should still be mid-run when the fast "
         "co-tenant completes";

  const auto slow_report = slow.wait();

  // Backpressure throttles — it never corrupts: both streams bit-exact.
  expect_bit_identical(fast_report.result.windows, batch_fast.windows);
  expect_bit_identical(slow_report.result.windows, batch_slow.windows);
  EXPECT_EQ(fast_report.result.completions.size(), cfg.num_trajectories);
  EXPECT_EQ(slow_report.result.completions.size(),
            slow_cfg.num_trajectories);

  const auto st = server.stats();
  EXPECT_EQ(st.sessions_completed, 2u);
  EXPECT_EQ(st.quanta_executed, st.quanta_accepted + st.quanta_discarded);
}

TEST(Service, DisconnectMidRunReleasesQuantaAndBalancesCounters) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.t_end = 200.0;  // long campaign the tenant will abandon

  svc::svc_config sc;
  sc.pool_workers = 2;
  sc.window_credits = 2;
  svc::run_server server(sc);

  // A raw protocol client: open, consume a couple of windows, vanish.
  {
    auto conn = server.connect();
    svc::open_request rq;
    rq.conn_id = conn.id();
    rq.token = conn.token();
    rq.cfg = cfg;
    rq.model_frame =
        dist::encode_model(cwcsim::model_ref{&m, nullptr, nullptr});
    conn.send(svc::encode_open(rq));

    int windows_seen = 0;
    while (windows_seen < 2) {
      auto msg = conn.recv_for(1.0);
      ASSERT_TRUE(msg.has_value()) << "server went silent mid-stream";
      dist::archive_reader r(*msg);
      const auto tag = svc::read_frame_header(r);
      ASSERT_NE(tag, svc::svc_tag::open_error);
      if (tag == svc::svc_tag::window) ++windows_seen;
    }
    // conn destructor: disconnect without cancel — a vanished tenant.
  }

  // The torn-down session's leases return to the pool: a fresh tenant
  // gets full service and completes.
  auto second_cfg = small_config();
  const auto report = cwcsim::run(m, second_cfg, cwcsim::service{&server});
  EXPECT_EQ(report.result.completions.size(), second_cfg.num_trajectories);

  // Give in-flight quanta of the torn-down session time to drain, then
  // the books must balance exactly-once: executed == accepted + discarded.
  svc::server_stats st = server.stats();
  for (int i = 0; i < 100; ++i) {
    const auto prev = st.quanta_executed;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    st = server.stats();
    if (st.quanta_executed == prev) break;
  }
  EXPECT_EQ(st.sessions_opened, 2u);
  EXPECT_EQ(st.sessions_completed, 1u);
  EXPECT_EQ(st.sessions_cancelled, 1u);
  EXPECT_EQ(st.quanta_executed, st.quanta_accepted + st.quanta_discarded);
}

TEST(Service, RequestStopCancelsCooperatively) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.t_end = 200.0;
  cfg.window_size = 4;
  cfg.window_slide = 4;
  cfg.kmeans_k = 0;

  svc::run_server server;
  auto s = cwcsim::run_builder()
               .model(m)
               .config(cfg)
               .backend(cwcsim::service{&server})
               .open();
  std::uint64_t windows_seen = 0;
  s.on_window([&](const cwcsim::window_summary&) {
    if (++windows_seen == 2) s.request_stop();
  });
  const auto report = s.wait();

  EXPECT_TRUE(report.stopped);
  EXPECT_GE(windows_seen, 2u);
  EXPECT_LT(report.result.windows.size(),
            cfg.num_samples() / cfg.window_slide);
  EXPECT_LT(report.result.completions.size(), cfg.num_trajectories);
  for (std::size_t i = 0; i + 1 < report.result.windows.size(); ++i)
    EXPECT_EQ(report.result.windows[i + 1].first_sample -
                  report.result.windows[i].first_sample,
              cfg.window_slide);

  const auto st = server.stats();
  EXPECT_EQ(st.sessions_cancelled, 1u);
  EXPECT_EQ(st.quanta_executed, st.quanta_accepted + st.quanta_discarded);
}

TEST(Service, AdmissionControlRejectsOverCapacityAndBadConfig) {
  const auto m = models::make_neurospora_cwc({});
  auto long_cfg = small_config();
  long_cfg.t_end = 500.0;

  svc::svc_config sc;
  sc.max_sessions = 1;
  sc.window_credits = 1;
  svc::run_server server(sc);

  // Occupy the single slot with a parked session (no credits granted).
  auto parked = server.connect();
  {
    svc::open_request rq;
    rq.conn_id = parked.id();
    rq.token = parked.token();
    rq.cfg = long_cfg;
    rq.model_frame =
        dist::encode_model(cwcsim::model_ref{&m, nullptr, nullptr});
    parked.send(svc::encode_open(rq));
    auto msg = parked.recv_for(1.0);
    ASSERT_TRUE(msg.has_value());
    dist::archive_reader r(*msg);
    ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::open_ok);
  }

  // Second tenant: server at capacity -> typed retry_after frames; the
  // driver backs off, retries five times, then gives up with a typed
  // failure on the client.
  EXPECT_THROW(cwcsim::run(m, small_config(), cwcsim::service{&server}),
               std::runtime_error);

  // Server-side validation: a degenerate config is rejected per-tenant
  // even when the client driver is bypassed.
  {
    auto conn = server.connect();
    svc::open_request rq;
    rq.conn_id = conn.id();
    rq.token = conn.token();
    rq.cfg = small_config();
    rq.cfg.window_slide = 0;  // invalid
    rq.model_frame =
        dist::encode_model(cwcsim::model_ref{&m, nullptr, nullptr});
    conn.send(svc::encode_open(rq));
    auto msg = conn.recv_for(1.0);
    ASSERT_TRUE(msg.has_value());
    dist::archive_reader r(*msg);
    EXPECT_EQ(svc::read_frame_header(r), svc::svc_tag::open_error);
  }
  {
    auto conn = server.connect();
    svc::open_request rq;
    rq.conn_id = conn.id();
    rq.token = conn.token();
    rq.cfg = small_config();
    rq.cfg.t_end = std::numeric_limits<double>::quiet_NaN();  // no horizon
    rq.model_frame =
        dist::encode_model(cwcsim::model_ref{&m, nullptr, nullptr});
    conn.send(svc::encode_open(rq));
    auto msg = conn.recv_for(1.0);
    ASSERT_TRUE(msg.has_value());
    dist::archive_reader r(*msg);
    EXPECT_EQ(svc::read_frame_header(r), svc::svc_tag::open_error);
  }
  {
    auto conn = server.connect();
    svc::open_request rq;
    rq.conn_id = conn.id();
    rq.token = conn.token();
    rq.cfg = small_config();
    rq.cfg.t_end = 4.0;
    rq.cfg.quantum = 1e-300;  // cannot move the clock: the run never ends
    rq.model_frame =
        dist::encode_model(cwcsim::model_ref{&m, nullptr, nullptr});
    conn.send(svc::encode_open(rq));
    auto msg = conn.recv_for(1.0);
    ASSERT_TRUE(msg.has_value());
    dist::archive_reader r(*msg);
    EXPECT_EQ(svc::read_frame_header(r), svc::svc_tag::open_error);
  }

  // Client-side validation catches the bad backend descriptor up front.
  EXPECT_THROW(cwcsim::run_builder()
                   .model(m)
                   .config(small_config())
                   .backend(cwcsim::service{nullptr})
                   .open(),
               cwcsim::config_error);
  cwcsim::service bad{&server};
  bad.weight = 0.0;
  EXPECT_THROW(
      cwcsim::run_builder().model(m).config(small_config()).backend(bad).open(),
      cwcsim::config_error);

  const auto st = server.stats();
  EXPECT_GE(st.sessions_rejected, 3u);  // bad configs (final, not retryable)
  EXPECT_GE(st.sessions_shed, 3u);      // capacity: initial open + retries
}

TEST(Service, ServerRejectsAZeroWindowOrSessionBound) {
  // Every session gets the server's window; at zero a session would be
  // admitted and never scheduled, since a backlog is never below a
  // capacity of 0. With no session slot, every open would be shed.
  svc::svc_config sc;
  sc.window_credits = 0;
  EXPECT_THROW({ svc::run_server server(sc); }, util::precondition_error);
  sc = svc::svc_config{};
  sc.max_sessions = 0;
  EXPECT_THROW({ svc::run_server server(sc); }, util::precondition_error);
}

TEST(Service, FinishedSessionReleasesItsModelToTheCache) {
  // A finished session retained for resume keeps only its token, stream
  // tail and terminal frame. Its model is no longer pinned, so the LRU
  // bound evicts it when the next tenant's model arrives.
  const auto net_a = models::make_birth_death({});
  const auto net_b = models::make_birth_death({60.0, 1.0, 0});
  const auto cfg = small_config();

  svc::svc_config sc;
  sc.model_cache_entries = 1;
  ASSERT_GT(sc.session_retention_s, 0.0);  // both records are retained
  svc::run_server server(sc);
  const auto a = cwcsim::run(net_a, cfg, cwcsim::service{&server});
  const auto b = cwcsim::run(net_b, cfg, cwcsim::service{&server});
  EXPECT_EQ(a.result.completions.size(), cfg.num_trajectories);
  EXPECT_EQ(b.result.completions.size(), cfg.num_trajectories);

  const auto st = server.stats();
  EXPECT_EQ(st.sessions_completed, 2u);
  EXPECT_EQ(st.cache.compiles, 2u);
  EXPECT_EQ(st.cache.evictions, 1u);
}

// A tree-model frame naming a species its tables never declared is turned
// away at open, not run on the pool every tenant shares: the engines index
// dense per-species tables by that id. A well-formed co-tenant on the same
// server finishes untouched.
TEST(Service, HostileModelFrameIsRejectedAndCoTenantFinishes) {
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = small_config();
  const auto batch = cwcsim::run(m, cfg).result;

  cwc::model hostile;
  hostile.set_initial(cwc::parse_term(hostile, "10*A"));
  hostile.add_observable("A", 0);
  cwc::rule eat("eat", cwc::top_compartment, cwc::rate_law::mass_action(1.0));
  hostile.add_rule(std::move(eat.consume(9)));  // species 9 was never declared

  svc::svc_config sc;
  sc.pool_workers = 2;
  svc::run_server server(sc);
  auto co_tenant = cwcsim::run_builder()
                       .model(m)
                       .config(cfg)
                       .backend(cwcsim::service{&server})
                       .open();
  co_tenant.start();

  // run_builder compiles before it connects, and compiling rejects the
  // model; make_service_driver sends the frame unchecked, as a foreign client
  // would.
  struct discard final : cwcsim::event_sink {
    void window(cwcsim::window_summary&&) override {}
    void trajectory_done(const cwcsim::task_done&) override {}
    bool stop_requested() const noexcept override { return false; }
  } sink;
  cwcsim::run_report rejected;
  try {
    cwcsim::detail::make_service_driver(
        cwcsim::model_ref{&hostile, nullptr, nullptr}, cfg,
        cwcsim::service{&server})
        ->run(sink, rejected);
    ADD_FAILURE() << "the hostile tenant was admitted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("open rejected: model frame rejected: "),
              std::string::npos)
        << e.what();
  }

  const auto report = co_tenant.wait();
  EXPECT_FALSE(report.stopped);
  expect_bit_identical(report.result.windows, batch.windows);
  EXPECT_EQ(report.result.completions.size(), cfg.num_trajectories);
  EXPECT_EQ(server.stats().sessions_completed, 1u);
}

TEST(Service, WeightedTenantsBothComplete) {
  // Unequal weights: both tenants must still complete with exact streams
  // (proportional service is a throughput property; completion and
  // bit-exactness are the hard guarantees).
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = small_config();
  const auto batch = cwcsim::run(m, cfg).result;

  svc::svc_config sc;
  sc.pool_workers = 2;
  svc::run_server server(sc);

  cwcsim::service heavy{&server};
  heavy.weight = 4.0;
  cwcsim::service light{&server};
  light.weight = 0.25;

  cwcsim::run_report heavy_rep, light_rep;
  std::thread t1(
      [&] { heavy_rep = cwcsim::run(m, cfg, heavy); });
  std::thread t2(
      [&] { light_rep = cwcsim::run(m, cfg, light); });
  t1.join();
  t2.join();

  expect_bit_identical(heavy_rep.result.windows, batch.windows);
  expect_bit_identical(light_rep.result.windows, batch.windows);
  const auto st = server.stats();
  EXPECT_EQ(st.sessions_completed, 2u);
  EXPECT_EQ(st.quanta_executed, st.quanta_accepted + st.quanta_discarded);
}

TEST(Service, SequentialTenantsLeaveNoRegistryEntries) {
  // A connection's downlink leaves the server's registry when the client
  // closes it, and a local model when the client's run that registered it
  // ends: a long-lived server serving tenant after tenant holds nothing
  // for tenants that are gone. Every other tenant's model has a custom rate
  // law, so half of them register a local model.
  const auto wire = models::make_birth_death({});
  cwc::reaction_network local;
  const auto a = local.declare_species("A");
  local.set_initial(a, 20);
  local.add_reaction("opaque-decay", {{a, 1}}, {},
                     cwc::rate_law::custom([](const cwc::rate_ctx& ctx) {
                       return 0.4 * ctx.combinations;
                     }));
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 2;
  cfg.t_end = 1.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 1.0;
  cfg.window_size = 2;
  cfg.window_slide = 2;
  cfg.kmeans_k = 0;

  svc::svc_config sc;
  sc.session_retention_s = 0.0;
  svc::run_server server(sc);
  constexpr int kTenants = 500;
  for (int i = 0; i < kTenants; ++i) {
    const auto r = i % 2 == 0 ? cwcsim::run(wire, cfg, cwcsim::service{&server})
                              : cwcsim::run(local, cfg, cwcsim::service{&server});
    ASSERT_EQ(r.result.completions.size(), cfg.num_trajectories);
  }
  // The last close frame may still be on its way to the dispatcher.
  svc::server_stats st = server.stats();
  for (int i = 0; i < 200 && st.connections != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    st = server.stats();
  }
  EXPECT_EQ(st.sessions_completed, static_cast<std::uint64_t>(kTenants));
  EXPECT_EQ(st.connections, 0u);
  EXPECT_EQ(st.local_models, 0u);
}

/// CPU seconds this process has used, user plus system, all threads.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

/// CPU seconds per wall second this process uses over `wall_s` of idling.
double idle_cpu_share(double wall_s) {
  const double cpu0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(wall_s));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return (process_cpu_s() - cpu0) / wall;
}

TEST(Service, IdleServerSleepsWithNoClient) {
  // The server holds a writer slot on its own ingress for its whole life,
  // so with no client connected the dispatcher waits out each tick (a
  // channel with no writer returns from recv_for at once) — both before the
  // first client and after the last one has gone.
  svc::run_server server;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // threads up
  EXPECT_LT(idle_cpu_share(0.5), 0.05) << "before any client";

  auto cfg = small_config();
  cfg.num_trajectories = 2;
  cfg.t_end = 2.0;
  const auto r =
      cwcsim::run(models::make_birth_death({}), cfg, cwcsim::service{&server});
  ASSERT_EQ(r.result.completions.size(), cfg.num_trajectories);
  svc::server_stats st = server.stats();
  for (int i = 0; i < 200 && st.connections != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    st = server.stats();
  }
  ASSERT_EQ(st.connections, 0u);
  EXPECT_LT(idle_cpu_share(0.5), 0.05) << "after the last client closed";
}

TEST(Service, DestroyServerWithLiveParkedSessionsClosesEveryDownlink) {
  // Regression: stop() tears sessions down while walking the registry, and
  // an idle session (no quanta in flight) retires synchronously, erasing
  // itself from the containers being iterated. Several live parked
  // sessions at destruction must not derail the teardown loop (ASan/TSan
  // guard the iterator invalidation), and every downlink must still reach
  // EOS so abandoned subscribers see drained, not a hang.
  const auto m = models::make_neurospora_cwc({});
  auto long_cfg = small_config();
  long_cfg.t_end = 500.0;

  std::vector<svc::client_conn> conns;
  {
    svc::svc_config sc;
    sc.window_credits = 1;
    svc::run_server server(sc);
    for (int i = 0; i < 4; ++i) {
      auto conn = server.connect();
      svc::open_request rq;
      rq.conn_id = conn.id();
      rq.token = conn.token();
      rq.cfg = long_cfg;
      rq.model_frame =
          dist::encode_model(cwcsim::model_ref{&m, nullptr, nullptr});
      conn.send(svc::encode_open(rq));
      auto msg = conn.recv_for(1.0);
      ASSERT_TRUE(msg.has_value());
      dist::archive_reader r(*msg);
      ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::open_ok);
      conns.push_back(std::move(conn));
    }
    // With one credit and a long run, every session soon hits its pending
    // bound and parks with nothing in flight; destroy the server while all
    // four are still live.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }  // ~run_server

  for (auto& c : conns) {
    while (c.recv_for(0.05).has_value()) {
    }
    EXPECT_TRUE(c.downlink_drained());
  }
}

}  // namespace
