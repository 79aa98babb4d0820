// Integration tests for the Fig. 2 pipeline: window spans, scheduler
// termination, configuration rejection and the cut assembler. Whether
// every cut and completion arrives, and whether the windows depend on
// the pipeline's shape, is conformance_test's matrix. The analysis
// stage's own tests (ordering, trajectory loss at EOS) live in
// analysis_stage_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/cwcsim.hpp"
#include "models/models.hpp"

namespace {

cwcsim::sim_config small_config() {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 12;
  cfg.t_end = 20.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 3.0;
  cfg.sim_workers = 2;
  cfg.stat_engines = 1;
  cfg.window_size = 5;
  cfg.window_slide = 5;
  cfg.kmeans_k = 2;
  cfg.seed = 1234;
  return cfg;
}

TEST(Pipeline, WindowsCarryCorrectSpans) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.window_size = 8;
  cfg.window_slide = 8;
  const auto res = cwcsim::run(m, cfg).result;
  // 41 samples -> 5 full windows of 8 + trailing 1.
  ASSERT_EQ(res.windows.size(), 6u);
  for (std::size_t i = 0; i < res.windows.size(); ++i) {
    EXPECT_EQ(res.windows[i].first_sample, i * 8);
    if (i + 1 < res.windows.size()) {
      EXPECT_EQ(res.windows[i].cuts.size(), 8u);
    }
  }
}

TEST(Pipeline, OverlappingWindows) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.t_end = 10.0;  // 21 samples
  cfg.window_size = 8;
  cfg.window_slide = 4;
  const auto res = cwcsim::run(m, cfg).result;
  // Full windows start at 0,4,8,12 (12+8=20 <= 21); trailing partial at 16.
  ASSERT_GE(res.windows.size(), 4u);
  for (std::size_t i = 0; i + 1 < res.windows.size(); ++i)
    EXPECT_EQ(res.windows[i + 1].first_sample - res.windows[i].first_sample, 4u);
}

TEST(Pipeline, SingleTrajectorySingleWorker) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.num_trajectories = 1;
  cfg.sim_workers = 1;
  const auto res = cwcsim::run(m, cfg).result;
  EXPECT_EQ(res.all_cuts().size(), cfg.num_samples());
  EXPECT_EQ(res.completions.size(), 1u);
}

TEST(Pipeline, RejectsDegenerateConfig) {
  const auto m = models::make_neurospora_cwc({});
  auto cfg = small_config();
  cfg.num_trajectories = 0;
  EXPECT_THROW(cwcsim::run_builder().model(m).config(cfg).open(),
               util::precondition_error);
  cfg = small_config();
  cfg.sim_workers = 0;
  EXPECT_THROW(cwcsim::run_builder().model(m).config(cfg).open(),
               util::precondition_error);
}

// Compile once per run is a checked rule: an engine is only ever built on
// the model's shared artifact, never on a silent private recompile.
TEST(Pipeline, MakeEngineRequiresCompiledModel) {
  const auto m = models::make_neurospora_cwc({});
  cwcsim::model_ref ref;
  ref.tree = &m;
  EXPECT_THROW(ref.make_engine(1, 0), util::precondition_error);
  ref.compile();
  EXPECT_EQ(ref.make_engine(1, 0).time(), 0.0);
}

// ----------------------------- cut assembler -----------------------------

/// Sample k of `trajectory`, with a payload naming both.
cwc::trajectory_sample tagged_sample(const cwcsim::sim_config& cfg,
                                     std::uint64_t trajectory, std::uint64_t k) {
  return cwc::trajectory_sample{
      cwc::sample_time(k, cfg.sample_period),
      {static_cast<double>(trajectory), static_cast<double>(k),
       static_cast<double>(1000 * trajectory + k)}};
}

TEST(CutAssembler, ReleasesCutsInIndexOrderFromOutOfOrderSamples) {
  cwcsim::sim_config cfg = small_config();
  cfg.num_trajectories = 3;
  const std::uint64_t n = cfg.num_samples();
  const std::uint64_t half = n / 2;
  cwcsim::cut_assembler a(cfg, 3);
  std::vector<stats::trajectory_cut> out;
  auto emit = [&out](stats::trajectory_cut&& c) { out.push_back(std::move(c)); };

  // Trajectory 2 runs to the end, trajectory 0 to half way, then
  // trajectory 1 catches up and trajectory 0 finishes last.
  for (std::uint64_t k = 0; k < n; ++k) a.ingest(2, tagged_sample(cfg, 2, k), emit);
  for (std::uint64_t k = 0; k < half; ++k) a.ingest(0, tagged_sample(cfg, 0, k), emit);
  EXPECT_TRUE(out.empty());
  for (std::uint64_t k = 0; k < n; ++k) {
    a.ingest(1, tagged_sample(cfg, 1, k), emit);
    EXPECT_EQ(out.size(), std::min(k + 1, half));
  }
  for (std::uint64_t k = half; k < n; ++k) a.ingest(0, tagged_sample(cfg, 0, k), emit);
  EXPECT_TRUE(a.drained());
  EXPECT_EQ(a.emitted(), n);

  ASSERT_EQ(out.size(), n);
  for (std::uint64_t k = 0; k < n; ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(out[k].sample_index, k);
    EXPECT_EQ(out[k].time, cwc::sample_time(k, cfg.sample_period));
    ASSERT_EQ(out[k].dims, 3u);
    ASSERT_EQ(out[k].trajectories(), 3u);
    for (std::uint64_t t = 0; t < 3; ++t) {
      const auto want = tagged_sample(cfg, t, k).values;
      EXPECT_TRUE(std::equal(want.begin(), want.end(),
                             out[k].values.begin() + static_cast<std::ptrdiff_t>(t * 3)))
          << "trajectory " << t;
    }
  }
}

TEST(CutAssembler, RejectsMalformedSamples) {
  cwcsim::sim_config cfg = small_config();
  cfg.num_trajectories = 2;
  cwcsim::cut_assembler a(cfg, 3);
  std::uint64_t emitted = 0;
  auto emit = [&emitted](stats::trajectory_cut&&) { ++emitted; };
  auto at_time = [](double t) {
    return cwc::trajectory_sample{t, {1.0, 2.0, 3.0}};
  };

  // Wrong width.
  EXPECT_THROW(a.ingest(0, cwc::trajectory_sample{0.0, {1.0, 2.0}}, emit),
               util::precondition_error);
  EXPECT_THROW(a.ingest(0, cwc::trajectory_sample{0.0, {1.0, 2.0, 3.0, 4.0}}, emit),
               util::precondition_error);
  // Times that are not finite, or name no sample point of the run.
  EXPECT_THROW(a.ingest(0, at_time(std::nan("")), emit), util::precondition_error);
  EXPECT_THROW(a.ingest(0, at_time(std::numeric_limits<double>::infinity()), emit),
               util::precondition_error);
  EXPECT_THROW(a.ingest(0, at_time(-cfg.sample_period), emit),
               util::precondition_error);
  EXPECT_THROW(
      a.ingest(0, at_time(cwc::sample_time(cfg.num_samples(), cfg.sample_period)),
               emit),
      util::precondition_error);
  EXPECT_THROW(a.ingest(2, at_time(0.0), emit), util::precondition_error);
  EXPECT_TRUE(a.drained());

  // An index that was already released.
  a.ingest(0, at_time(0.0), emit);
  a.ingest(1, at_time(0.0), emit);
  EXPECT_EQ(emitted, 1u);
  EXPECT_THROW(a.ingest(0, at_time(0.0), emit), util::precondition_error);
  EXPECT_TRUE(a.drained());

  // A second sample for a (trajectory, index) the pending cut already
  // holds: counting it as the other trajectory's row would release the
  // cut with that row still 0.0.
  a.ingest(0, at_time(cfg.sample_period), emit);
  EXPECT_THROW(a.ingest(0, cwc::trajectory_sample{cfg.sample_period,
                                                  {7.0, 7.0, 7.0}},
                        emit),
               util::precondition_error);
  EXPECT_EQ(emitted, 1u);
  EXPECT_FALSE(a.drained());

  // The rejected samples left no trace: the cut assembles normally, with
  // the first sample's row.
  std::vector<double> released;
  a.ingest(1, at_time(cfg.sample_period),
           [&](stats::trajectory_cut&& c) { released = c.values; });
  EXPECT_EQ(released, (std::vector<double>{1.0, 2.0, 3.0, 1.0, 2.0, 3.0}));
  EXPECT_TRUE(a.drained());
}

}  // namespace
