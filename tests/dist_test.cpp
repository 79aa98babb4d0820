// Tests for the distributed runtime: serialisation round-trips, the network
// fabric (ordering, close semantics, latency), and end-to-end equivalence
// of the distributed simulator with the shared-memory one.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "dist/dist.hpp"
#include "models/models.hpp"
#include "util/stopwatch.hpp"

namespace {

TEST(Serialize, PodRoundTrip) {
  dist::archive_writer w;
  w.put<std::uint64_t>(42);
  w.put<double>(3.5);
  w.put<std::int32_t>(-7);
  const auto bytes = w.take();

  dist::archive_reader r(bytes);
  EXPECT_EQ(r.get<std::uint64_t>(), 42u);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.5);
  EXPECT_EQ(r.get<std::int32_t>(), -7);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, StringAndVectorRoundTrip) {
  dist::archive_writer w;
  w.put_string("hello cwc");
  w.put_vector<double>({1.0, 2.0, 3.0});
  w.put_string("");
  const auto bytes = w.take();

  dist::archive_reader r(bytes);
  EXPECT_EQ(r.get_string(), "hello cwc");
  EXPECT_EQ(r.get_vector<double>(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, UnderflowThrows) {
  dist::archive_writer w;
  w.put<std::uint32_t>(1);
  const auto bytes = w.take();
  dist::archive_reader r(bytes);
  EXPECT_THROW(r.get<std::uint64_t>(), std::runtime_error);
}

TEST(Wire, TaskDoneRoundTrip) {
  cwcsim::task_done d;
  d.trajectory_id = 9;
  d.quanta = 12;
  d.steps = 34567;
  const auto back = dist::decode_task_done(dist::encode_task_done(d));
  EXPECT_EQ(back.trajectory_id, 9u);
  EXPECT_EQ(back.quanta, 12u);
  EXPECT_EQ(back.steps, 34567u);
}

TEST(NetChannel, DeliversInOrderPerWriter) {
  dist::net_channel ch;
  ch.add_writer();
  for (int i = 0; i < 100; ++i) {
    dist::archive_writer w;
    w.put<int>(i);
    ch.send(w.take());
  }
  ch.close_writer();
  for (int i = 0; i < 100; ++i) {
    auto m = ch.recv();
    ASSERT_TRUE(m.has_value());
    dist::archive_reader r(*m);
    EXPECT_EQ(r.get<int>(), i);
  }
  EXPECT_FALSE(ch.recv().has_value());
  EXPECT_EQ(ch.messages_sent(), 100u);
}

TEST(NetChannel, RecvUnblocksOnClose) {
  dist::net_channel ch;
  ch.add_writer();
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.close_writer();
  });
  EXPECT_FALSE(ch.recv().has_value());
  closer.join();
}

TEST(NetChannel, LatencyDelaysDelivery) {
  dist::net_params p;
  p.latency_s = 0.05;
  dist::net_channel ch(p);
  ch.add_writer();
  util::stopwatch sw;
  ch.send({std::byte{1}});
  auto m = ch.recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_GE(sw.elapsed_s(), 0.045);
  ch.close_writer();
}

TEST(NetChannel, MultipleWritersAllDrained) {
  dist::net_channel ch;
  constexpr int kWriters = 4, kEach = 50;
  std::vector<std::thread> ts;
  for (int w = 0; w < kWriters; ++w) ch.add_writer();
  for (int w = 0; w < kWriters; ++w) {
    ts.emplace_back([&ch, w] {
      for (int i = 0; i < kEach; ++i) {
        dist::archive_writer aw;
        aw.put<int>(w * 1000 + i);
        ch.send(aw.take());
      }
      ch.close_writer();
    });
  }
  int got = 0;
  while (ch.recv().has_value()) ++got;
  for (auto& t : ts) t.join();
  EXPECT_EQ(got, kWriters * kEach);
}

TEST(DistributedSimulator, MatchesMulticoreExactly) {
  const auto m = models::make_neurospora_cwc({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 18;
  cfg.t_end = 12.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 3.0;
  cfg.sim_workers = 2;
  cfg.stat_engines = 2;
  cfg.window_size = 5;
  cfg.window_slide = 5;

  const auto mc = cwcsim::run(m, cfg).result;

  dist::dist_config dc;
  dc.base = cfg;
  dc.num_hosts = 3;
  dc.workers_per_host = 2;
  dc.network.latency_s = 1e-4;
  dc.network.bytes_per_s = 50e6;
  auto dr = dist::distributed_simulator(m, dc).run();

  ASSERT_EQ(dr.result.windows.size(), mc.windows.size());
  for (std::size_t i = 0; i < mc.windows.size(); ++i) {
    ASSERT_EQ(dr.result.windows[i].first_sample, mc.windows[i].first_sample);
    for (std::size_t c = 0; c < mc.windows[i].cuts.size(); ++c) {
      const auto& a = mc.windows[i].cuts[c];
      const auto& b = dr.result.windows[i].cuts[c];
      for (std::size_t d = 0; d < a.moments.size(); ++d) {
        ASSERT_DOUBLE_EQ(a.moments[d].mean(), b.moments[d].mean());
        ASSERT_DOUBLE_EQ(a.moments[d].variance(), b.moments[d].variance());
      }
    }
  }
  EXPECT_EQ(dr.result.completions.size(), cfg.num_trajectories);
  ASSERT_TRUE(dr.network.has_value());
  EXPECT_GT(dr.network->messages, 0u);
  EXPECT_GT(dr.network->bytes, 0.0);
}

TEST(DistributedSimulator, SingleHostDegenerateCase) {
  const auto net = models::make_birth_death({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 4;
  cfg.t_end = 5.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 2.0;
  cfg.kmeans_k = 0;

  dist::dist_config dc;
  dc.base = cfg;
  dc.num_hosts = 1;
  dc.workers_per_host = 2;
  auto dr = dist::distributed_simulator(net, dc).run();
  EXPECT_EQ(dr.result.all_cuts().size(), cfg.num_samples());
}

TEST(DistributedSimulator, RejectsMoreHostsThanTrajectories) {
  const auto net = models::make_birth_death({});
  dist::dist_config dc;
  dc.base.num_trajectories = 2;
  dc.num_hosts = 5;
  EXPECT_THROW(dist::distributed_simulator(net, dc), util::precondition_error);
}

// ------------------- elastic scheduling & fault injection -----------------

cwcsim::sim_config fault_base_config() {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 12;
  cfg.t_end = 6.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 1.5;
  cfg.kmeans_k = 0;
  cfg.window_size = 4;
  cfg.window_slide = 4;
  return cfg;
}

void expect_windows_bit_exact(const std::vector<cwcsim::window_summary>& a,
                              const std::vector<cwcsim::window_summary>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].first_sample, b[i].first_sample);
    ASSERT_EQ(a[i].cuts.size(), b[i].cuts.size());
    for (std::size_t c = 0; c < a[i].cuts.size(); ++c) {
      const auto& x = a[i].cuts[c];
      const auto& y = b[i].cuts[c];
      ASSERT_EQ(x.moments.size(), y.moments.size());
      for (std::size_t d = 0; d < x.moments.size(); ++d) {
        ASSERT_DOUBLE_EQ(x.moments[d].mean(), y.moments[d].mean());
        ASSERT_DOUBLE_EQ(x.moments[d].variance(), y.moments[d].variance());
      }
    }
  }
}

TEST(DistributedElastic, MatchesFarmExactly) {
  const auto net = models::make_birth_death({});
  const auto cfg = fault_base_config();

  dist::dist_config elastic;
  elastic.base = cfg;
  elastic.num_hosts = 4;
  elastic.workers_per_host = 1;
  elastic.network.latency_s = 1e-4;

  const auto er = dist::distributed_simulator(net, elastic).run();
  const auto farm = cwcsim::run(net, cfg).result;
  expect_windows_bit_exact(er.result.windows, farm.windows);

  // Elastic honesty counters: one grant per trajectory in a healthy run
  // is the floor (duplicate requests may add more), and every accepted
  // quantum is attributed to exactly one host.
  ASSERT_TRUE(er.network.has_value());
  EXPECT_GE(er.network->grants, cfg.num_trajectories);
  std::uint64_t quanta = 0;
  for (const auto& d : er.result.completions) quanta += d.quanta;
  std::uint64_t accepted = 0;
  ASSERT_EQ(er.network->host_quanta.size(), elastic.num_hosts);
  for (const auto q : er.network->host_quanta) accepted += q;
  EXPECT_EQ(accepted, quanta);
}

/// Kill 1 of 4 hosts at {25, 50, 75}% of the first trajectory it runs,
/// under drop_prob in {0, 0.05}: the elastic scheduler must finish with
/// results bit-identical to the no-fault run and exactly-once completion
/// accounting.
class fault_matrix
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(fault_matrix, SurvivesHostDeathBitExactly) {
  const auto [progress_frac, drop_prob] = GetParam();
  const auto net = models::make_birth_death({});
  auto cfg = fault_base_config();
  // Every host must be granted work before the queue drains: a host that
  // never runs a trajectory never dies. Enough trajectories, and a link
  // latency that makes each grant round trip take wall time, keep the
  // queue non-empty long after a briefly descheduled host sends its
  // first request.
  cfg.num_trajectories = 48;

  dist::dist_config dc;
  dc.base = cfg;
  dc.num_hosts = 4;
  dc.workers_per_host = 1;
  dc.network.latency_s = 1e-3;
  dc.reissue_after_s = 0.05;  // fast failure detection keeps the test quick
  dc.master_tick_s = 0.01;
  dc.worker_retry_s = 0.02;

  // Reference: the same elastic deployment with no faults at all.
  const auto reference = dist::distributed_simulator(net, dc).run();

  dc.network.drop_prob = drop_prob;
  dist::distributed_simulator sim(net, dc);
  // Elastic pulling does not promise host 1 any fair share of the
  // campaign, only its first grant: kill it partway through the first
  // trajectory it runs, so the death always happens mid-flight.
  sim.kill_host(1, progress_frac * cfg.t_end);
  const auto dr = sim.run();

  // Bit-exact results despite the death (and the message loss).
  expect_windows_bit_exact(reference.result.windows, dr.result.windows);

  // Exactly-once completion accounting: every trajectory reported once.
  ASSERT_EQ(dr.result.completions.size(), cfg.num_trajectories);
  std::vector<int> seen(cfg.num_trajectories, 0);
  for (const auto& d : dr.result.completions) {
    ASSERT_LT(d.trajectory_id, cfg.num_trajectories);
    ++seen[static_cast<std::size_t>(d.trajectory_id)];
  }
  for (const auto s : seen) EXPECT_EQ(s, 1);

  // No double-counting: accepted quanta match the completions' totals.
  std::uint64_t quanta = 0;
  for (const auto& d : dr.result.completions) quanta += d.quanta;
  ASSERT_TRUE(dr.network.has_value());
  std::uint64_t accepted = 0;
  for (const auto q : dr.network->host_quanta) accepted += q;
  EXPECT_EQ(accepted, quanta);

  // The dead host's in-flight work was re-issued, and the master saw it.
  EXPECT_GE(dr.network->reissued, 1u);
  EXPECT_GE(dr.network->grants, cfg.num_trajectories + dr.network->reissued);
}

INSTANTIATE_TEST_SUITE_P(
    KillTimesAndLoss, fault_matrix,
    ::testing::Combine(::testing::Values(0.25, 0.5, 0.75),
                       ::testing::Values(0.0, 0.05)));

TEST(DistributedFaults, AllHostsDeadFailsCleanly) {
  const auto net = models::make_birth_death({});
  dist::dist_config dc;
  dc.base = fault_base_config();
  dc.num_hosts = 2;
  dc.workers_per_host = 1;
  dc.reissue_after_s = 0.05;
  dc.master_tick_s = 0.01;
  dist::distributed_simulator sim(net, dc);
  sim.kill_host(0, 1.0).kill_host(1, 1.0);  // both die almost immediately
  EXPECT_THROW(sim.run(), std::runtime_error);
}

/// Regression for the deadlock bug: a host whose engine throws used to
/// leave the master blocked in recv() forever (the dying worker never
/// called close_writer()). With writer_guard + error capture the run must
/// surface the worker's exception.
TEST(DistributedFaults, ThrowingHostYieldsErrorNotHang) {
  cwc::reaction_network net;
  const auto a = net.declare_species("A");
  net.set_initial(a, 100);
  net.add_reaction("boom", {{a, 1}}, {},
                   cwc::rate_law::custom([](const cwc::rate_ctx&) -> double {
                     throw std::runtime_error("engine blew up");
                   }));

  dist::dist_config dc;
  dc.base = fault_base_config();
  dc.num_hosts = 2;
  dc.workers_per_host = 2;
  dc.master_tick_s = 0.01;
  dist::distributed_simulator sim(net, dc);
  EXPECT_THROW(sim.run(), std::runtime_error);  // finishes, never hangs
}

}  // namespace
