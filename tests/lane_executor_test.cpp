// Tests for the lane executor (core/lane_executor.hpp), the lockstep round
// behind the batched multicore driver, the gpu backend and sweep
// campaigns: every lane's sample stream and every retirement record
// (cell, trajectory, quanta, steps), in order, must equal a standalone
// scalar engine advanced with advance_one_quantum — for scalar lanes
// (width 0) and SoA batch groups (widths 4 and 32), on 1 and 3 workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "core/cwcsim.hpp"
#include "core/lane_executor.hpp"
#include "core/quantum.hpp"
#include "models/models.hpp"
#include "simt/simt.hpp"

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
    cwcsim::any_engine eng(cells[l.cell], cfg.seed, l.trajectory_id);
    std::vector<cwc::trajectory_sample> all;
    std::uint64_t q = 0;
    while (true) {
      auto out = cwcsim::advance_one_quantum(eng, cfg, l.trajectory_id, q++);
      all.insert(all.end(), out.batch.samples.begin(),
                 out.batch.samples.end());
      if (out.finished) {
        t.retired.emplace_back(l.cell, l.trajectory_id, out.done.quanta,
                               out.done.steps);
        break;
      }
    }
    t.samples.push_back(std::move(all));
    t.steps.push_back(eng.steps());
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
  const lane_trace oracle = run_standalone(cells, cfg, 10);
  EXPECT_LT(std::get<2>(oracle.retired.front()),
            std::get<2>(oracle.retired.back()))
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

TEST(LaneExecutor, GpuScalarAndBatchLanesAgree) {
  const auto m = stalling_demo();
  auto cfg = small_config();
  cfg.num_trajectories = 12;
  cfg.window_size = 5;
  cfg.window_slide = 5;

  const auto scalar = cwcsim::run(
      m, cfg, cwcsim::gpu{simt::devices::tesla_k40(), 25.0, /*batch_width=*/0});
  const auto batched = cwcsim::run(
      m, cfg, cwcsim::gpu{simt::devices::tesla_k40(), 25.0, /*batch_width=*/5});

  ASSERT_EQ(scalar.result.completions.size(), cfg.num_trajectories);
  ASSERT_EQ(batched.result.completions.size(), cfg.num_trajectories);
  for (std::size_t i = 0; i < cfg.num_trajectories; ++i) {
    SCOPED_TRACE(i);
    const auto& a = scalar.result.completions[i];
    const auto& b = batched.result.completions[i];
    EXPECT_EQ(a.trajectory_id, b.trajectory_id);
    EXPECT_EQ(a.quanta, b.quanta);
    EXPECT_EQ(a.steps, b.steps);
  }
  ASSERT_TRUE(scalar.device.has_value());
  ASSERT_TRUE(batched.device.has_value());
  EXPECT_EQ(scalar.device->kernels, batched.device->kernels);
}

}  // namespace
