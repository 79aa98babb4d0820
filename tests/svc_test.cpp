// Tests for the simulation-as-a-service layer (src/svc/): the session
// frame protocol, the compiled-model cache, and the multi-tenant run
// server — bit-exactness with multicore, compile-once sharing across
// tenants, credit-based backpressure isolation, fair completion under
// contention, and teardown accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
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
  rq.window_credits = 17;
  rq.cfg = small_config();
  rq.model_frame = dist::encode_model(cwcsim::model_ref{nullptr, &net, nullptr});
  rq.local_model = 0;

  const auto frame = svc::encode_open(rq);
  dist::archive_reader r(frame);
  ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::open);
  const auto back = svc::read_open(r);
  EXPECT_EQ(back.conn_id, rq.conn_id);
  EXPECT_EQ(back.weight, rq.weight);
  EXPECT_EQ(back.window_credits, rq.window_credits);
  EXPECT_EQ(back.model_frame, rq.model_frame);
  // The whole config, so a field the codec drops fails here.
  EXPECT_EQ(back.cfg, rq.cfg);

  // The decoded model compiles into a behaviourally identical artifact.
  const auto cm = dist::decode_model(back.model_frame);
  EXPECT_FALSE(cm->is_tree());
}

TEST(SvcProto, ControlAndTerminalFramesRoundTrip) {
  {
    const auto f = svc::encode_credit(7, 3);
    dist::archive_reader r(f);
    ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::credit);
    const auto g = svc::read_credit(r);
    EXPECT_EQ(g.conn_id, 7u);
    EXPECT_EQ(g.consumed_total, 3u);
  }
  {
    // Heartbeat carries the same cumulative ack and decodes with the same
    // reader (a lost credit frame is healed by the next heartbeat).
    const auto f = svc::encode_heartbeat(11, 42);
    dist::archive_reader r(f);
    ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::heartbeat);
    const auto g = svc::read_credit(r);
    EXPECT_EQ(g.conn_id, 11u);
    EXPECT_EQ(g.consumed_total, 42u);
  }
  {
    const auto f = svc::encode_cancel(9);
    dist::archive_reader r(f);
    ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::cancel);
    EXPECT_EQ(svc::read_conn_id(r), 9u);
  }
  {
    svc::open_ack a;
    a.session_id = 3;
    a.session_token = 0xDEADBEEFULL;
    a.pool_workers = 8;
    a.window_credits = 4;
    a.cache_hit = true;
    a.resumed = true;
    const auto f = svc::encode_open_ack(a);
    dist::archive_reader r(f);
    ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::open_ok);
    const auto b = svc::read_open_ack(r);
    EXPECT_EQ(b.session_id, 3u);
    EXPECT_EQ(b.session_token, 0xDEADBEEFULL);
    EXPECT_EQ(b.pool_workers, 8u);
    EXPECT_EQ(b.window_credits, 4u);
    EXPECT_TRUE(b.cache_hit);
    EXPECT_TRUE(b.resumed);
  }
  {
    svc::shed_notice n;
    n.retry_after_s = 0.125;
    n.reason = "session watermark reached";
    const auto f = svc::encode_retry_after(n);
    dist::archive_reader r(f);
    ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::retry_after);
    const auto b = svc::read_retry_after(r);
    EXPECT_DOUBLE_EQ(b.retry_after_s, 0.125);
    EXPECT_EQ(b.reason, "session watermark reached");
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
  rq.resume_token = 0xFEEDFACEULL;
  rq.resume_next_seq = 321;
  rq.cfg = small_config();
  rq.local_model = 2;
  const auto f = svc::encode_open(rq);
  dist::archive_reader r(f);
  ASSERT_EQ(svc::read_frame_header(r), svc::svc_tag::open);
  const auto back = svc::read_open(r);
  EXPECT_EQ(back.resume_token, 0xFEEDFACEULL);
  EXPECT_EQ(back.resume_next_seq, 321u);
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
  auto f = svc::encode_credit(1, 1);
  // Byte 0 is the tag; byte 1 the schema version (dist/schema.hpp).
  f[1] = std::byte{0x7F};
  dist::archive_reader r(f);
  EXPECT_THROW(svc::read_frame_header(r), dist::schema_mismatch_error);
}

TEST(SvcProto, UnknownTagRejected) {
  auto f = svc::encode_credit(1, 1);
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

TEST(Service, BitExactWithMulticoreSameSeed) {
  const auto m = models::make_neurospora_cwc({});
  const auto cfg = small_config();
  const auto batch = cwcsim::run(m, cfg).result;
  ASSERT_FALSE(batch.windows.empty());

  svc::run_server server;
  std::vector<cwcsim::window_summary> streamed;
  auto s = cwcsim::run_builder()
               .model(m)
               .config(cfg)
               .backend(cwcsim::service{&server})
               .open();
  s.on_window(
      [&](const cwcsim::window_summary& w) { streamed.push_back(w); });
  const auto report = s.wait();

  EXPECT_EQ(report.backend, "service");
  EXPECT_FALSE(report.stopped);
  expect_bit_identical(report.result.windows, batch.windows);
  expect_bit_identical(streamed, batch.windows);
  EXPECT_EQ(report.result.completions.size(), cfg.num_trajectories);
  ASSERT_TRUE(report.network.has_value());
  EXPECT_GT(report.network->messages, 0u);
  EXPECT_GT(report.network->bytes, 0.0);
  EXPECT_GT(report.network->model_bytes, 0.0);
  EXPECT_GT(report.network->grants, 0u);

  const auto st = server.stats();
  EXPECT_EQ(st.sessions_opened, 1u);
  EXPECT_EQ(st.sessions_completed, 1u);
  EXPECT_EQ(st.cache.compiles, 1u);
  EXPECT_EQ(st.quanta_executed, st.quanta_accepted + st.quanta_discarded);
  EXPECT_EQ(st.quanta_discarded, 0u);
}

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
  svc::run_server server(sc);
  const auto batch_fast = cwcsim::run(m, cfg).result;
  const auto batch_slow = cwcsim::run(m, slow_cfg).result;

  std::atomic<std::uint64_t> slow_completions{0};

  // The slow tenant: tiny credit window and a subscriber that naps per
  // window, so its pending queue saturates and the scheduler parks it.
  cwcsim::service slow_be{&server};
  slow_be.window_credits = 2;
  auto slow = cwcsim::run_builder()
                  .model(m)
                  .config(slow_cfg)
                  .backend(slow_be)
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
  sc.default_window_credits = 2;
  svc::run_server server(sc);

  // A raw protocol client: open, consume a couple of windows, vanish.
  {
    auto conn = server.connect();
    svc::open_request rq;
    rq.conn_id = conn.id();
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
  sc.default_window_credits = 1;
  svc::run_server server(sc);

  // Occupy the single slot with a parked session (no credits granted).
  auto parked = server.connect();
  {
    svc::open_request rq;
    rq.conn_id = parked.id();
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
  // driver backs off, retries open_retries times, then gives up with a
  // typed failure on the client.
  cwcsim::service impatient{&server};
  impatient.open_retries = 2;  // keep the backoff short for the test
  EXPECT_THROW(cwcsim::run(m, small_config(), impatient),
               std::runtime_error);

  // Server-side validation: a degenerate config is rejected per-tenant
  // even when the client driver is bypassed.
  {
    auto conn = server.connect();
    svc::open_request rq;
    rq.conn_id = conn.id();
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
  EXPECT_GE(st.sessions_rejected, 1u);  // bad config (final, not retryable)
  EXPECT_GE(st.sessions_shed, 3u);      // capacity: initial open + 2 retries
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

TEST(Service, CustomRateLawFallsBackToLocalModelSharing) {
  // Custom rate laws cannot cross the wire (dist/model_codec.hpp); the
  // service driver registers the compiled artifact in-process instead,
  // transparently, and the run stays bit-exact with multicore.
  cwc::reaction_network net;
  const auto a = net.declare_species("A");
  net.set_initial(a, 60);
  net.add_reaction("opaque-decay", {{a, 1}}, {},
                   cwc::rate_law::custom([](const cwc::rate_ctx& ctx) {
                     return 0.4 * ctx.combinations;
                   }));
  ASSERT_FALSE(
      dist::wire_encodable(cwcsim::model_ref{nullptr, &net, nullptr}));

  auto cfg = small_config();
  cfg.kmeans_k = 0;
  const auto batch = cwcsim::run(net, cfg).result;

  svc::run_server server;
  const auto report = cwcsim::run(net, cfg, cwcsim::service{&server});
  expect_bit_identical(report.result.windows, batch.windows);
  EXPECT_EQ(report.result.completions.size(), cfg.num_trajectories);
  ASSERT_TRUE(report.network.has_value());
  EXPECT_EQ(report.network->model_bytes, 0.0);  // nothing crossed the wire
  EXPECT_EQ(server.stats().cache.compiles, 0u);  // cache bypassed
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
    sc.default_window_credits = 1;
    svc::run_server server(sc);
    for (int i = 0; i < 4; ++i) {
      auto conn = server.connect();
      svc::open_request rq;
      rq.conn_id = conn.id();
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
