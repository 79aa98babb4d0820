// Tests for the lane executor (core/lane_executor.hpp), the lockstep round
// behind the multicore driver, the gpu backend, sweep campaigns and the
// distributed hosts: every lane's sample stream and every retirement
// record (cell, trajectory, quanta, steps), in order, must equal a
// standalone scalar engine advanced with advance_one_quantum — for scalar
// lanes (width 0) and SoA batch groups (widths 4 and 32), on 1 and 3
// workers. The pipelined run() must deliver exactly what repeated round()
// calls deliver, and stop after exactly the rounds between() allowed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cwcsim.hpp"
#include "core/lane_executor.hpp"
#include "models/models.hpp"
#include "serial_oracle.hpp"

namespace {

using cwcsim::lane_executor;

/// (cell, trajectory, quanta, steps) of one retirement.
using retirement =
    std::tuple<std::uint32_t, std::uint64_t, std::uint64_t, std::uint64_t>;

struct lane_trace {
  std::vector<std::vector<cwc::trajectory_sample>> samples;  ///< per lane
  std::vector<std::uint64_t> steps;  ///< per lane, summed over quanta
  std::vector<retirement> retired;   ///< in callback order
};

/// compartment_demo with vesicles forming fast enough that most lanes
/// stall (no rule can fire) before t_end = 20, each at its own time.
cwc::model stalling_demo() {
  models::compartment_demo_params p;
  p.k_form = 0.2;
  return models::make_compartment_demo(p);
}

cwcsim::sim_config small_config() {
  cwcsim::sim_config cfg;
  cfg.t_end = 20.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 1.5;
  cfg.seed = 0x1A4E5;
  return cfg;
}

/// Lane index of `l` in a cell-major population of n lanes per cell.
std::size_t index_of(const lane_executor::lane& l, std::uint64_t n) {
  return static_cast<std::size_t>(l.cell * n + l.trajectory_id);
}

lane_trace run_executor(const lane_executor::cell_list& cells,
                        const cwcsim::sim_config& cfg, std::uint64_t n,
                        std::size_t width, unsigned workers) {
  const auto lanes =
      lane_executor::ensemble(n, static_cast<std::uint32_t>(cells.size()));
  lane_trace t;
  t.samples.resize(lanes.size());
  t.steps.assign(lanes.size(), 0);
  lane_executor ex(cells, cfg, lanes, width, workers);
  while (ex.live() > 0) {
    ex.round(
        [&](const lane_executor::lane_quantum& q) {
          const std::size_t i = index_of(q.id, n);
          t.samples[i].insert(t.samples[i].end(), q.samples.begin(),
                              q.samples.end());
          t.steps[i] += q.steps;
        },
        [&](std::uint32_t cell, const cwcsim::task_done& d) {
          t.retired.emplace_back(cell, d.trajectory_id, d.quanta, d.steps);
        });
  }
  return t;
}

/// The oracle: one standalone engine per lane under the scalar quantum
/// contract. Lanes retiring in the same round retire in lane order.
lane_trace run_standalone(const lane_executor::cell_list& cells,
                          const cwcsim::sim_config& cfg, std::uint64_t n) {
  lane_trace t;
  for (const lane_executor::lane& l :
       lane_executor::ensemble(n, static_cast<std::uint32_t>(cells.size()))) {
    auto r = oracle::replay_trajectory(cells[l.cell], cfg, l.trajectory_id);
    t.retired.emplace_back(l.cell, l.trajectory_id, r.quanta, r.steps);
    t.samples.push_back(std::move(r.samples));
    t.steps.push_back(r.steps);
  }
  std::stable_sort(t.retired.begin(), t.retired.end(),
                   [](const retirement& a, const retirement& b) {
                     return std::get<2>(a) < std::get<2>(b);
                   });
  return t;
}

void expect_same(const lane_trace& got, const lane_trace& want) {
  ASSERT_EQ(got.samples.size(), want.samples.size());
  for (std::size_t i = 0; i < want.samples.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(got.samples[i].size(), want.samples[i].size());
    for (std::size_t k = 0; k < want.samples[i].size(); ++k) {
      ASSERT_EQ(got.samples[i][k].time, want.samples[i][k].time);
      ASSERT_EQ(got.samples[i][k].values, want.samples[i][k].values);
    }
  }
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.retired, want.retired);
}

/// Every width x worker combination against the standalone oracle.
void expect_lockstep_exact(const lane_executor::cell_list& cells,
                           const cwcsim::sim_config& cfg, std::uint64_t n) {
  ASSERT_TRUE(lane_executor::batches(cells, 4));
  const lane_trace want = run_standalone(cells, cfg, n);
  for (const std::size_t width : {0u, 4u, 32u}) {
    for (const unsigned workers : {1u, 3u}) {
      SCOPED_TRACE(testing::Message()
                   << "width " << width << " workers " << workers);
      expect_same(run_executor(cells, cfg, n, width, workers), want);
    }
  }
}

/// Everything an executor delivered, in callback order.
struct delivery_log {
  struct quantum {
    std::size_t lane = 0;
    std::uint64_t steps = 0;
    double time = 0.0;
    std::uint64_t total_steps = 0;
    std::vector<cwc::trajectory_sample> samples;
  };
  std::vector<quantum> quanta;
  std::vector<retirement> retired;
  /// (rounds(), live()) after each delivered round.
  std::vector<std::pair<std::uint64_t, std::size_t>> after_round;
};

lane_executor::samples_fn log_samples(delivery_log& log, std::uint64_t n) {
  return [&log, n](const lane_executor::lane_quantum& q) {
    log.quanta.push_back({index_of(q.id, n), q.steps, q.time, q.total_steps,
                          {q.samples.begin(), q.samples.end()}});
  };
}

lane_executor::done_fn log_done(delivery_log& log) {
  return [&log](std::uint32_t cell, const cwcsim::task_done& d) {
    log.retired.emplace_back(cell, d.trajectory_id, d.quanta, d.steps);
  };
}

/// Up to `max_rounds` synchronous round() calls.
delivery_log by_rounds(const lane_executor::cell_list& cells,
                       const cwcsim::sim_config& cfg, std::uint64_t n,
                       std::size_t width, unsigned workers,
                       std::uint64_t max_rounds = ~std::uint64_t{0}) {
  delivery_log log;
  lane_executor ex(cells, cfg, lane_executor::ensemble(n), width, workers);
  while (ex.live() > 0 && ex.rounds() < max_rounds) {
    ex.round(log_samples(log, n), log_done(log));
    log.after_round.emplace_back(ex.rounds(), ex.live());
  }
  return log;
}

/// One pipelined run() whose between() stops it after `max_rounds`.
delivery_log by_run(const lane_executor::cell_list& cells,
                    const cwcsim::sim_config& cfg, std::uint64_t n,
                    std::size_t width, unsigned workers, bool& all_retired,
                    std::uint64_t max_rounds = ~std::uint64_t{0}) {
  delivery_log log;
  lane_executor ex(cells, cfg, lane_executor::ensemble(n), width, workers);
  all_retired = ex.run(log_samples(log, n), log_done(log), [&] {
    log.after_round.emplace_back(ex.rounds(), ex.live());
    return ex.rounds() < max_rounds;
  });
  EXPECT_EQ(ex.rounds(), log.after_round.size());
  EXPECT_EQ(ex.live(), log.after_round.back().second);
  return log;
}

void expect_same(const delivery_log& got, const delivery_log& want) {
  ASSERT_EQ(got.quanta.size(), want.quanta.size());
  for (std::size_t k = 0; k < want.quanta.size(); ++k) {
    SCOPED_TRACE(k);
    const auto& a = got.quanta[k];
    const auto& b = want.quanta[k];
    ASSERT_EQ(a.lane, b.lane);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.total_steps, b.total_steps);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < b.samples.size(); ++i) {
      ASSERT_EQ(a.samples[i].time, b.samples[i].time);
      ASSERT_EQ(a.samples[i].values, b.samples[i].values);
    }
  }
  EXPECT_EQ(got.retired, want.retired);
  EXPECT_EQ(got.after_round, want.after_round);
}

/// run() against repeated round() calls, to completion and stopped after
/// `stop_after` rounds, on every width x worker combination.
void expect_run_matches_rounds(const cwc::model& m,
                               const cwcsim::sim_config& cfg, std::uint64_t n,
                               std::uint64_t stop_after) {
  const lane_executor::cell_list cells = {cwc::compiled_model::compile(m)};
  for (const std::size_t width : {0u, 4u, 32u}) {
    for (const unsigned workers : {1u, 3u}) {
      SCOPED_TRACE(testing::Message()
                   << "width " << width << " workers " << workers);
      const delivery_log want = by_rounds(cells, cfg, n, width, workers);
      ASSERT_GT(want.after_round.size(), stop_after);
      ASSERT_EQ(want.retired.size(), n);
      bool all_retired = false;
      expect_same(by_run(cells, cfg, n, width, workers, all_retired), want);
      EXPECT_TRUE(all_retired);

      SCOPED_TRACE(testing::Message() << "stopped after " << stop_after);
      const delivery_log part =
          by_rounds(cells, cfg, n, width, workers, stop_after);
      const delivery_log got =
          by_run(cells, cfg, n, width, workers, all_retired, stop_after);
      expect_same(got, part);
      ASSERT_LT(part.retired.size(), n);
      EXPECT_FALSE(all_retired);
      ASSERT_EQ(got.after_round.size(), stop_after);
      EXPECT_EQ(got.after_round.back().second, n - part.retired.size());
    }
  }
}

TEST(LaneExecutor, RunDeliversWhatRoundsDeliverOnNeurospora) {
  auto cfg = small_config();
  cfg.t_end = 10.0;
  cfg.quantum = 2.0;
  expect_run_matches_rounds(models::make_neurospora_cwc({}), cfg, 10, 2);
}

TEST(LaneExecutor, RunDeliversWhatRoundsDeliverOnStaggeredStalls) {
  // Lanes retire in different rounds: a stop after round 6 leaves 7 of
  // the 10 retired and 3 live.
  expect_run_matches_rounds(stalling_demo(), small_config(), 10, 6);
}

TEST(LaneExecutor, NeurosporaLanesMatchStandaloneEngines) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.t_end = 10.0;
  cfg.quantum = 2.0;
  expect_lockstep_exact({cwc::compiled_model::compile(m)}, cfg, 10);
}

TEST(LaneExecutor, StaggeredStallsMatchStandaloneEngines) {
  // Lanes stall at different rounds: groups keep stepping around retired
  // and fast-forwarded lanes.
  const lane_executor::cell_list cells = {
      cwc::compiled_model::compile(stalling_demo())};
  const auto cfg = small_config();
  const lane_trace standalone = run_standalone(cells, cfg, 10);
  EXPECT_LT(std::get<2>(standalone.retired.front()),
            std::get<2>(standalone.retired.back()))
      << "every lane retired in the same round";
  expect_lockstep_exact(cells, cfg, 10);
}

TEST(LaneExecutor, TwoCellOverlayPopulationMatchesStandaloneEngines) {
  // Width 4 over 2 x 5 lanes puts lanes of both cells in one group.
  const auto base = cwc::compiled_model::compile(stalling_demo());
  const lane_executor::cell_list cells = {
      cwc::compiled_model::overlay(base, {{"grow", 0.6}}),
      cwc::compiled_model::overlay(base, {{"grow", 1.4}})};
  expect_lockstep_exact(cells, small_config(), 5);
}

TEST(LaneExecutor, UnbatchableCellsRunScalarLanes) {
  const auto flat = cwc::compiled_model::compile(models::make_schlogl({}));
  EXPECT_FALSE(lane_executor::batches({flat}, 32));
  EXPECT_FALSE(lane_executor::batches(
      {cwc::compiled_model::compile(models::make_neurospora_cwc({}))}, 1));

  auto cfg = small_config();
  cfg.t_end = 4.0;
  const lane_trace want = run_standalone({flat}, cfg, 6);
  expect_same(run_executor({flat}, cfg, 6, 32, 3), want);
}

}  // namespace
