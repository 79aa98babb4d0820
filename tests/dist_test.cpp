// Tests for the distributed runtime: serialisation round-trips, the network
// fabric (ordering, close semantics, latency), end-to-end equivalence of
// the cwcsim::distributed backend with the shared-memory farm, descriptor
// validation, and the elastic scheduler under host kills and message loss.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/cwcsim.hpp"
#include "dist/dist.hpp"
#include "models/models.hpp"
#include "util/stopwatch.hpp"
#include "window_equality.hpp"

namespace {

using testing_windows::expect_bit_identical;

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

  cwcsim::distributed cluster{3, 2};
  cluster.network.latency_s = 1e-4;
  cluster.network.bytes_per_s = 50e6;
  const auto dr = cwcsim::run(m, cfg, cluster);

  EXPECT_EQ(dr.backend, "distributed");
  expect_bit_identical(dr.result.windows, mc.windows);
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

  const auto dr = cwcsim::run(net, cfg, cwcsim::distributed{1, 2});
  EXPECT_EQ(dr.result.all_cuts().size(), cfg.num_samples());
}

/// The field a rejected distributed descriptor is reported under.
std::string rejected_field(const cwcsim::sim_config& cfg,
                           const cwcsim::distributed& cluster) {
  const auto net = models::make_birth_death({});
  try {
    (void)cwcsim::run_builder().model(net).config(cfg).backend(cluster).open();
  } catch (const cwcsim::config_error& e) {
    return e.field();
  }
  return "";
}

TEST(DistributedSimulator, RejectsMoreHostsThanTrajectories) {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 2;
  EXPECT_EQ(rejected_field(cfg, cwcsim::distributed{5, 2}),
            "distributed.num_hosts");
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(DistributedConfig, RejectsBadHostSpeeds) {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 8;
  cwcsim::distributed cluster{2, 1};
  for (const auto& speeds : std::vector<std::vector<double>>{
           {0.5}, {1.0, 0.0}, {1.0, -0.25}, {1.5, 1.0}, {1.0, kNaN},
           {kInf, 1.0}}) {
    cluster.host_speed = speeds;
    EXPECT_EQ(rejected_field(cfg, cluster), "distributed.host_speed");
  }
  cluster.host_speed = {1.0, 0.25};
  EXPECT_EQ(rejected_field(cfg, cluster), "");
}

TEST(DistributedConfig, RejectsBadKills) {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 8;
  cwcsim::distributed cluster{2, 1};
  for (const auto& kill : std::vector<cwcsim::kill_spec>{
           {2, 1.0}, {0, -1.0}, {1, kNaN}, {1, kInf}}) {
    cluster.kills = {kill};
    EXPECT_EQ(rejected_field(cfg, cluster), "distributed.kills");
  }
  cluster.kills = {{1, 0.0}, {1, 2.5}};
  EXPECT_EQ(rejected_field(cfg, cluster), "");
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

TEST(DistributedElastic, MatchesFarmExactly) {
  const auto net = models::make_birth_death({});
  const auto cfg = fault_base_config();

  cwcsim::distributed elastic{4, 1};
  elastic.network.latency_s = 1e-4;

  const auto er = cwcsim::run(net, cfg, elastic);
  const auto farm = cwcsim::run(net, cfg).result;
  expect_bit_identical(er.result.windows, farm.windows);

  // Elastic honesty counters: one grant per lease (one quantum of one
  // lane block) in a healthy run, and every accepted quantum is
  // attributed to exactly one host.
  ASSERT_TRUE(er.network.has_value());
  EXPECT_GE(er.network->grants, cfg.num_trajectories);
  std::uint64_t quanta = 0;
  for (const auto& d : er.result.completions) quanta += d.quanta;
  std::uint64_t accepted = 0;
  ASSERT_EQ(er.network->host_quanta.size(), elastic.num_hosts);
  for (const auto q : er.network->host_quanta) accepted += q;
  EXPECT_EQ(accepted, quanta);
}

/// Collects a run's windows and the quantum each re-issue resumes from.
struct reissue_recorder final : cwcsim::event_sink {
  std::mutex mu;
  std::vector<cwcsim::window_summary> windows;
  std::vector<std::uint64_t> reissued_from;

  void window(cwcsim::window_summary&& w) override {
    const std::lock_guard<std::mutex> lk(mu);
    windows.push_back(std::move(w));
  }
  void trajectory_done(const cwcsim::task_done&) override {}
  bool stop_requested() const noexcept override { return false; }
  void quantum_reissued(std::uint64_t, std::uint64_t from) override {
    const std::lock_guard<std::mutex> lk(mu);
    reissued_from.push_back(from);
  }
};

/// Kill 1 of 4 hosts once its lanes have advanced {25, 50, 75}% of its
/// share of the campaign's lane-time, under drop_prob in {0, 0.05}: the
/// elastic scheduler must finish with results bit-identical to the
/// no-fault run and exactly-once completion accounting.
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

  cwcsim::distributed cluster{4, 1};
  cluster.network.latency_s = 1e-3;

  // Reference: the same elastic deployment with no faults at all.
  const auto reference = cwcsim::run(net, cfg, cluster);

  cluster.network.drop_prob = drop_prob;
  // Host 1 is homed a quarter of the lane blocks, and leases pass them
  // breadth-first: it dies a quarter, half or three quarters of the way
  // through its share, mid-lease.
  const double share = cfg.t_end * static_cast<double>(cfg.num_trajectories) /
                       cluster.num_hosts;
  cluster.kills = {{1, progress_frac * share}};
  cwcsim::model_ref mr{nullptr, &net, nullptr};
  mr.compile();
  reissue_recorder rec;
  cwcsim::run_report dr;
  cwcsim::detail::make_distributed_driver(mr, cfg, cluster)->run(rec, dr);

  // Bit-exact results despite the death (and the message loss).
  expect_bit_identical(rec.windows, reference.result.windows);

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
  // Every lease the fault-free run needed is granted again, plus one
  // grant per re-issue.
  EXPECT_GE(dr.network->reissued, 1u);
  ASSERT_TRUE(reference.network.has_value());
  const std::uint64_t leases =
      reference.network->grants - reference.network->reissued;
  EXPECT_GE(dr.network->grants, leases + dr.network->reissued);

  // Past a quarter of its share the dead host had passed every block's
  // first quantum: its leases resume from a nonzero checkpoint, which
  // another host reaches by replay.
  if (progress_frac > 0.25) {
    bool replayed = false;
    for (const auto q : rec.reissued_from) replayed = replayed || q > 0;
    EXPECT_TRUE(replayed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KillTimesAndLoss, fault_matrix,
    ::testing::Combine(::testing::Values(0.25, 0.5, 0.75),
                       ::testing::Values(0.0, 0.05)));

/// The master releases cuts as blocks pass them: with every lane block
/// advancing breadth-first, the first window streams out while every
/// trajectory is still running.
TEST(DistributedStreaming, FirstWindowBeforeFirstCompletion) {
  const auto m = models::make_neurospora_cwc({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 48;
  cfg.t_end = 48.0;  // 12 windows of 8 samples
  cfg.sample_period = 0.5;
  cfg.quantum = 2.0;
  cfg.kmeans_k = 0;
  cfg.window_size = 8;
  cfg.window_slide = 8;

  // Delivery is serialized and joined before wait() returns.
  std::size_t events = 0, first_window = 0, first_done = 0;
  auto s = cwcsim::run_builder()
               .model(m)
               .config(cfg)
               .backend(cwcsim::distributed{3, 1})
               .open();
  s.on_window([&](const cwcsim::window_summary&) {
    if (first_window == 0) first_window = ++events;
  });
  s.on_trajectory_done([&](const cwcsim::task_done&) {
    if (first_done == 0) first_done = ++events;
  });
  const auto rep = s.wait();
  ASSERT_EQ(rep.result.completions.size(), cfg.num_trajectories);
  ASSERT_GT(first_window, 0u);
  ASSERT_GT(first_done, 0u);
  EXPECT_LT(first_window, first_done);
}

TEST(DistributedFaults, AllHostsDeadFailsCleanly) {
  const auto net = models::make_birth_death({});
  cwcsim::distributed cluster{2, 1};
  cluster.kills = {{0, 1.0}, {1, 1.0}};  // both die almost immediately
  auto s = cwcsim::run_builder()
               .model(net)
               .config(fault_base_config())
               .backend(cluster)
               .open();
  EXPECT_THROW(s.wait(), std::runtime_error);
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

  auto s = cwcsim::run_builder()
               .model(net)
               .config(fault_base_config())
               .backend(cwcsim::distributed{2, 2})
               .open();
  EXPECT_THROW(s.wait(), std::runtime_error);  // finishes, never hangs
}

}  // namespace
