// Tests for the discrete-event simulator and the pipeline platform models:
// event ordering, resource laws (work conservation, makespan bounds),
// links, workload capture invariants, and qualitative scaling properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/lane_executor.hpp"
#include "des/des.hpp"
#include "models/models.hpp"

namespace {

TEST(DesEngine, ExecutesInTimeOrderWithFifoTieBreak) {
  des::engine eng;
  std::vector<int> order;
  eng.at(2.0, [&] { order.push_back(3); });
  eng.at(1.0, [&] { order.push_back(1); });
  eng.at(2.0, [&] { order.push_back(4); });  // same time: FIFO
  eng.at(1.5, [&] { order.push_back(2); });
  const double end = eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(end, 2.0);
  EXPECT_EQ(eng.events_executed(), 4u);
}

TEST(DesEngine, HandlersMayScheduleMoreEvents) {
  des::engine eng;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) eng.after(1.0, tick);
  };
  eng.after(1.0, tick);
  EXPECT_DOUBLE_EQ(eng.run(), 5.0);
  EXPECT_EQ(count, 5);
}

TEST(DesEngine, RejectsPastEvents) {
  des::engine eng;
  eng.at(5.0, [&] { EXPECT_THROW(eng.at(1.0, [] {}), util::precondition_error); });
  eng.run();
}

TEST(Resource, SingleServerSerialisesJobs) {
  des::engine eng;
  des::resource r(eng, 1);
  std::vector<double> finish;
  for (int i = 0; i < 3; ++i)
    r.submit(2.0, [&] { finish.push_back(eng.now()); });
  eng.run();
  EXPECT_EQ(finish, (std::vector<double>{2.0, 4.0, 6.0}));
  EXPECT_DOUBLE_EQ(r.busy_seconds(), 6.0);
}

TEST(Resource, MultiServerRunsInParallel) {
  des::engine eng;
  des::resource r(eng, 3);
  std::vector<double> finish;
  for (int i = 0; i < 3; ++i)
    r.submit(2.0, [&] { finish.push_back(eng.now()); });
  EXPECT_DOUBLE_EQ(eng.run(), 2.0);
  EXPECT_EQ(finish.size(), 3u);
}

TEST(Resource, WorkConservation) {
  // 10 jobs of 1s on 4 servers: makespan in [ceil(10/4), 10].
  des::engine eng;
  des::resource r(eng, 4);
  for (int i = 0; i < 10; ++i) r.submit(1.0, [] {});
  const double makespan = eng.run();
  EXPECT_GE(makespan, 10.0 / 4.0 - 1e-9);
  EXPECT_LE(makespan, 10.0 + 1e-9);
  EXPECT_EQ(r.jobs_completed(), 10u);
}

TEST(SlotPool, LimitsConcurrency) {
  des::engine eng;
  des::slot_pool slots(eng, 2);
  int held = 0, peak = 0;
  for (int i = 0; i < 6; ++i) {
    slots.acquire([&] {
      peak = std::max(peak, ++held);
      eng.after(1.0, [&] {
        --held;
        slots.release();
      });
    });
  }
  eng.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(slots.available(), 2u);
}

TEST(Link, LatencyPlusBandwidth) {
  des::engine eng;
  des::link l(eng, 0.01, 1000.0);  // 10ms, 1kB/s
  double delivered = -1.0;
  l.send(500.0, [&] { delivered = eng.now(); });
  eng.run();
  EXPECT_NEAR(delivered, 0.51, 1e-9);  // 0.5s transfer + 10ms latency
}

TEST(Link, WireSerialisesTransfersLatencyOverlaps) {
  des::engine eng;
  des::link l(eng, 0.1, 100.0);
  std::vector<double> times;
  l.send(10.0, [&] { times.push_back(eng.now()); });  // xfer 0.1
  l.send(10.0, [&] { times.push_back(eng.now()); });  // queued behind
  eng.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_NEAR(times[0], 0.2, 1e-9);  // 0.1 xfer + 0.1 latency
  EXPECT_NEAR(times[1], 0.3, 1e-9);  // wire busy until 0.2, +0.1 latency
}

// --------------------------- workload capture ----------------------------

TEST(Trace, CaptureMatchesRealEngineTotals) {
  const auto m = models::make_neurospora_cwc({});
  cwcsim::model_ref mr;
  mr.tree = &m;
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 6;
  cfg.t_end = 10.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 2.0;

  const auto w = des::capture_workload(mr, cfg);
  EXPECT_EQ(w.num_trajectories, 6u);
  EXPECT_EQ(w.num_samples, cfg.num_samples());
  ASSERT_EQ(w.quanta.size(), 6u);

  // Per-trajectory sample totals cover the grid exactly.
  for (const auto& traj : w.quanta) {
    std::uint64_t samples = 0;
    for (const auto& q : traj) samples += q.samples;
    EXPECT_EQ(samples, w.num_samples);
  }

  // Steps equal a direct sequential run of the same trajectories.
  std::uint64_t direct_steps = 0;
  for (std::uint64_t i = 0; i < 6; ++i) {
    cwc::engine eng(cwc::compiled_model::compile(m), cfg.seed, i);
    std::vector<cwc::trajectory_sample> out;
    eng.run_to(cfg.t_end, cfg.sample_period, out);
    direct_steps += eng.steps();
  }
  EXPECT_EQ(w.total_steps(), direct_steps);
}

TEST(Trace, CapturePerQuantumMatchesLaneRounds) {
  // Quantum by quantum, the DES capture agrees on (steps, samples) with the
  // lane executor's rounds, scalar (width 0) and batched (width 4), and
  // per trajectory with multicore{}'s completion notices — including the
  // stalled-tail fast-forward of compartment_demo lanes, most of which
  // stall before t_end with fast vesicle formation.
  const auto neurospora = models::make_neurospora_cwc({});
  models::compartment_demo_params fast_form;
  fast_form.k_form = 0.2;
  const auto cdemo = models::make_compartment_demo(fast_form);
  for (const cwc::model* m : {&neurospora, &cdemo}) {
    cwcsim::model_ref mr;
    mr.tree = m;
    mr.compile();
    cwcsim::sim_config cfg;
    cfg.num_trajectories = 6;
    cfg.t_end = 20.0;
    cfg.sample_period = 0.5;
    cfg.quantum = 1.5;
    cfg.sim_workers = 3;

    const auto w = des::capture_workload(mr, cfg);
    ASSERT_EQ(w.quanta.size(), cfg.num_trajectories);

    for (const std::size_t width : {std::size_t{0}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "batch width " << width);
      // rounds[i][q] = lane i's (steps, samples) in round q.
      std::vector<std::vector<cwcsim::quantum_record>> rounds(
          cfg.num_trajectories);
      cwcsim::lane_executor lanes(
          {mr.compiled}, cfg,
          cwcsim::lane_executor::ensemble(cfg.num_trajectories), width,
          cfg.sim_workers);
      while (lanes.live() > 0)
        lanes.round(
            [&](const cwcsim::lane_executor::lane_quantum& q) {
              rounds[q.id.trajectory_id].push_back(
                  {q.steps, static_cast<std::uint32_t>(q.samples.size())});
            },
            [](std::uint32_t, const cwcsim::task_done&) {});
      for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i) {
        ASSERT_EQ(rounds[i].size(), w.quanta[i].size()) << "trajectory " << i;
        for (std::size_t q = 0; q < rounds[i].size(); ++q) {
          SCOPED_TRACE(testing::Message() << "trajectory " << i << " quantum "
                                          << q);
          EXPECT_EQ(w.quanta[i][q].ssa_steps, rounds[i][q].ssa_steps);
          EXPECT_EQ(w.quanta[i][q].samples, rounds[i][q].samples);
        }
      }
    }

    const auto farm = cwcsim::run(*m, cfg).result;
    ASSERT_EQ(farm.completions.size(), cfg.num_trajectories);
    for (const cwcsim::task_done& d : farm.completions) {
      SCOPED_TRACE(testing::Message() << "trajectory " << d.trajectory_id);
      const auto& qs = w.quanta[d.trajectory_id];
      std::uint64_t steps = 0;
      for (const auto& q : qs) steps += q.ssa_steps;
      EXPECT_EQ(d.quanta, qs.size());
      EXPECT_EQ(d.steps, steps);
    }
  }

  // t_end = 0: the loop guard records no quanta at all.
  const auto m = models::make_neurospora_cwc({});
  cwcsim::model_ref mr;
  mr.tree = &m;
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 2;
  cfg.t_end = 0.0;
  EXPECT_EQ(des::capture_workload(mr, cfg).total_quanta(), 0u);
}

TEST(Trace, CalibrationProducesSaneNumbers) {
  const auto m = models::make_neurospora_cwc({});
  cwcsim::model_ref mr;
  mr.tree = &m;
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 8;
  const auto cal = des::calibrate(mr, cfg);
  EXPECT_GT(cal.sim_ns_per_step, 1.0);
  EXPECT_LT(cal.sim_ns_per_step, 1e6);
  EXPECT_GT(cal.stat_ns_per_point, 0.1);
  EXPECT_GT(cal.align_ns_per_sample, 0.0);
}

// --------------------------- platform models -----------------------------

class des_fixture : public ::testing::Test {
 protected:
  static const des::workload& workload() {
    static const des::workload w = [] {
      const auto* m = model();
      cwcsim::model_ref mr;
      mr.tree = m;
      cwcsim::sim_config cfg;
      cfg.num_trajectories = 32;
      cfg.t_end = 20.0;
      cfg.sample_period = 0.5;
      cfg.quantum = 2.5;
      return des::capture_workload(mr, cfg);
    }();
    return w;
  }
  static const cwc::model* model() {
    static const cwc::model m = models::make_neurospora_cwc({});
    return &m;
  }
  static des::calibration cal() {
    des::calibration c;
    c.sim_ns_per_step = 250.0;
    c.stat_ns_per_point = 50.0;
    c.align_ns_per_sample = 100.0;
    return c;
  }
};

TEST_F(des_fixture, MulticoreMakespanBounds) {
  const auto host = des::platforms::nehalem_32core();
  for (unsigned W : {1u, 4u, 16u}) {
    des::farm_params fp;
    fp.sim_workers = W;
    fp.stat_engines = 2;
    const auto o = des::simulate_multicore(workload(), cal(), host, fp);
    // Makespan can never beat perfect parallelism of sim work alone, nor
    // exceed fully serialised total work.
    EXPECT_GE(o.makespan_s, o.sim_busy_s / W - 1e-9) << "W=" << W;
    EXPECT_LE(o.makespan_s, o.sim_busy_s + o.stat_busy_s + 1.0);
    EXPECT_EQ(o.cuts, workload().num_samples);
  }
}

TEST_F(des_fixture, SpeedupMonotoneAndBounded) {
  const auto host = des::platforms::nehalem_32core();
  double prev = 0.0;
  des::farm_params fp;
  fp.stat_engines = 4;
  fp.sim_workers = 1;
  const double t1 = des::simulate_multicore(workload(), cal(), host, fp).makespan_s;
  for (unsigned W : {2u, 4u, 8u, 16u}) {
    fp.sim_workers = W;
    const double t = des::simulate_multicore(workload(), cal(), host, fp).makespan_s;
    const double speedup = t1 / t;
    EXPECT_GT(speedup, prev * 0.99) << "W=" << W;  // monotone (tolerant)
    EXPECT_LE(speedup, W * 1.01);                  // never superlinear
    prev = speedup;
  }
}

TEST_F(des_fixture, StatBottleneckCapsSpeedupAndMoreEnginesLiftIt) {
  // Inflate stat cost so one engine fully saturates; four engines must help.
  auto c = cal();
  c.stat_ns_per_point = 12000.0;
  const auto host = des::platforms::nehalem_32core();
  des::farm_params one;
  one.sim_workers = 16;
  one.stat_engines = 1;
  des::farm_params four = one;
  four.stat_engines = 4;
  const auto t_one = des::simulate_multicore(workload(), c, host, one).makespan_s;
  const auto t_four = des::simulate_multicore(workload(), c, host, four).makespan_s;
  EXPECT_LT(t_four, t_one * 0.6);
}

TEST_F(des_fixture, OnDemandBeatsRoundRobinOnUnbalancedWork) {
  const auto host = des::platforms::nehalem_32core();
  des::farm_params od;
  od.sim_workers = 8;
  od.stat_engines = 4;
  des::farm_params rr = od;
  rr.policy = des::dispatch_policy::round_robin;
  const auto t_od = des::simulate_multicore(workload(), cal(), host, od).makespan_s;
  const auto t_rr = des::simulate_multicore(workload(), cal(), host, rr).makespan_s;
  EXPECT_LE(t_od, t_rr * 1.02);  // on-demand at least as good
}

TEST_F(des_fixture, CoreContentionSlowsOversubscribedHost) {
  // Same farm on a 4-core host vs a 64-core host: the big host cannot be
  // slower.
  des::farm_params fp;
  fp.sim_workers = 4;
  fp.stat_engines = 2;
  des::host_spec small{"small", 4, 1.0, 1.0};
  const auto t_small = des::simulate_multicore(workload(), cal(), small, fp);
  const auto t_big = des::simulate_multicore(
      workload(), cal(), des::platforms::nehalem_32core(), fp);
  EXPECT_GE(t_small.makespan_s, t_big.makespan_s - 1e-9);
}

TEST_F(des_fixture, ClusterCompletesAndScalesWithHosts) {
  des::cluster_params cp;
  cp.master = des::platforms::xeon_x5670();
  cp.network = des::platforms::ipoib();
  cp.sim_workers_per_host = 2;
  cp.stat_engines = 4;

  cp.hosts = {des::platforms::xeon_x5670()};
  const auto t1 = des::simulate_cluster(workload(), cal(), cp);
  EXPECT_EQ(t1.cuts, workload().num_samples);
  EXPECT_GT(t1.messages, 0u);

  cp.hosts.assign(4, des::platforms::xeon_x5670());
  const auto t4 = des::simulate_cluster(workload(), cal(), cp);
  EXPECT_LT(t4.makespan_s, t1.makespan_s);
  // With 4x the hosts, ideal is 4x; accept >= 2x on this small workload.
  EXPECT_GT(t1.makespan_s / t4.makespan_s, 2.0);
}

TEST_F(des_fixture, SlowerNetworkNeverHelps) {
  des::cluster_params cp;
  cp.master = des::platforms::xeon_x5670();
  cp.sim_workers_per_host = 2;
  cp.hosts.assign(4, des::platforms::xeon_x5670());

  cp.network = des::platforms::ipoib();
  const auto fast = des::simulate_cluster(workload(), cal(), cp);
  cp.network = des::platforms::eth_1g();
  const auto slow = des::simulate_cluster(workload(), cal(), cp);
  EXPECT_GE(slow.makespan_s, fast.makespan_s - 1e-9);
}

}  // namespace
