// Tests for cwcsim::analysis_stage, the one analysis stage of every
// backend: windows bit-identical with the serial reference (cut_assembler
// -> sliding_window_builder -> summarize_cut) across worker counts, window
// shapes and feeding orders; one summary per cut when windows overlap;
// in-order emission when summaries finish out of order; and the stop,
// trajectory-loss and throwing-summary paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "core/analysis_stage.hpp"
#include "util/rng.hpp"
#include "window_equality.hpp"

namespace {

using testing_windows::expect_bit_identical;

constexpr std::size_t kDims = 3;

cwcsim::sim_config config(std::uint64_t trajectories, std::uint64_t samples,
                          std::size_t size, std::size_t slide) {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = trajectories;
  cfg.sample_period = 0.25;
  cfg.t_end = static_cast<double>(samples - 1) * cfg.sample_period;
  cfg.window_size = size;
  cfg.window_slide = slide;
  cfg.kmeans_k = 2;
  cfg.seed = 99;
  return cfg;
}

/// Sample k of `trajectory`: two populations, so k-means has work to do.
cwc::trajectory_sample sample(const cwcsim::sim_config& cfg,
                              std::uint64_t trajectory, std::uint64_t k) {
  util::rng_stream rng(trajectory * 7919 + k, 17);
  const double centre = trajectory % 3 == 0 ? 50.0 : 10.0;
  cwc::trajectory_sample s{cwc::sample_time(k, cfg.sample_period), {}};
  for (std::size_t d = 0; d < kDims; ++d)
    s.values.push_back(centre + static_cast<double>(rng.next_below(16)));
  return s;
}

/// Thread-safe, order-recording sink.
class recording_sink final : public cwcsim::event_sink {
 public:
  void window(cwcsim::window_summary&& w) override {
    const std::lock_guard<std::mutex> lk(mu_);
    windows.push_back(std::move(w));
  }
  void trajectory_done(const cwcsim::task_done&) override {}
  bool stop_requested() const noexcept override { return stop.load(); }

  std::vector<cwcsim::window_summary> windows;
  std::atomic<bool> stop{false};

 private:
  std::mutex mu_;
};

/// Summaries of every window the serial pipeline builds over `cuts`.
std::vector<cwcsim::window_summary> serial_reference(
    const cwcsim::sim_config& cfg, std::vector<stats::trajectory_cut> cuts) {
  stats::sliding_window_builder builder(cfg.window_size, cfg.window_slide);
  std::vector<stats::trajectory_window> windows;
  for (auto& c : cuts)
    for (auto& w : builder.push(std::move(c))) windows.push_back(std::move(w));
  for (auto& w : builder.flush()) windows.push_back(std::move(w));

  std::vector<cwcsim::window_summary> out;
  for (const auto& w : windows) {
    cwcsim::window_summary s;
    s.first_sample = w.first_sample;
    for (const auto& c : w.cuts)
      s.cuts.push_back(stats::summarize_cut(c, cfg.kmeans_k, cfg.seed));
    out.push_back(std::move(s));
  }
  return out;
}

/// The cuts a cut_assembler releases when every trajectory reports every
/// sample below `samples`.
std::vector<stats::trajectory_cut> assembled_cuts(const cwcsim::sim_config& cfg,
                                                  std::uint64_t samples) {
  cwcsim::cut_assembler a(cfg, kDims);
  std::vector<stats::trajectory_cut> cuts;
  for (std::uint64_t t = 0; t < cfg.num_trajectories; ++t)
    for (std::uint64_t k = 0; k < samples; ++k)
      a.ingest(t, sample(cfg, t, k),
               [&](stats::trajectory_cut&& c) { cuts.push_back(std::move(c)); });
  return cuts;
}

// ------------------------------------------- bit-identical with the serial

enum class feed { trajectory_major, sample_major, threads };

using shape = std::tuple<unsigned, std::pair<std::size_t, std::size_t>, feed>;

class analysis_stage_test : public ::testing::TestWithParam<shape> {};

TEST_P(analysis_stage_test, WindowsMatchSerialReferenceBitForBit) {
  const auto [workers, window, order] = GetParam();
  // 37 cuts leave a trailing partial window for every shape but (1, 1).
  const std::uint64_t n = 24, samples = 37;
  const auto cfg = config(n, samples, window.first, window.second);
  const auto want = serial_reference(cfg, assembled_cuts(cfg, samples));

  recording_sink sink;
  cwcsim::analysis_stage stage(cfg, kDims, sink, workers);
  switch (order) {
    case feed::trajectory_major:
      for (std::uint64_t t = 0; t < n; ++t)
        for (std::uint64_t k = 0; k < samples; ++k)
          stage.ingest(t, sample(cfg, t, k));
      break;
    case feed::sample_major:
      for (std::uint64_t k = 0; k < samples; ++k)
        for (std::uint64_t t = n; t-- > 0;) stage.ingest(t, sample(cfg, t, k));
      break;
    case feed::threads: {
      // Three producers own interleaved trajectories and feed them in
      // quanta of different lengths, serialized like a run server's
      // sessions (one ingesting thread at a time).
      std::mutex ingest_mu;
      std::vector<std::thread> producers;
      for (std::uint64_t p = 0; p < 3; ++p)
        producers.emplace_back([&, p] {
          const std::uint64_t quantum = 2 + 3 * p;
          for (std::uint64_t k0 = 0; k0 < samples; k0 += quantum)
            for (std::uint64_t t = p; t < n; t += 3) {
              const std::lock_guard<std::mutex> lk(ingest_mu);
              for (std::uint64_t k = k0; k < std::min(samples, k0 + quantum); ++k)
                stage.ingest(t, sample(cfg, t, k));
            }
        });
      for (auto& th : producers) th.join();
      break;
    }
  }
  stage.finish();

  expect_bit_identical(sink.windows, want);
  // Overlapping windows share summaries: one per cut, never one per window.
  EXPECT_EQ(stage.summarized(), samples);
}

INSTANTIATE_TEST_SUITE_P(
    WorkersShapesOrders, analysis_stage_test,
    ::testing::Combine(
        ::testing::Values(0u, 1u, 3u),
        ::testing::Values(std::pair<std::size_t, std::size_t>{16, 16},
                          std::pair<std::size_t, std::size_t>{16, 8},
                          std::pair<std::size_t, std::size_t>{5, 3},
                          std::pair<std::size_t, std::size_t>{1, 1}),
        ::testing::Values(feed::trajectory_major, feed::sample_major,
                          feed::threads)));

// ------------------------------------------------------------ ordering

TEST(AnalysisStage, SummariesFinishingOutOfOrderStillEmitWindowsInOrder) {
  // Cut 0 is ~1000x the others, so with three workers the summaries of
  // cuts 1..7 finish first; windows must still leave in first_sample order.
  auto cfg = config(1, 8, 2, 2);
  std::vector<stats::trajectory_cut> cuts;
  for (std::uint64_t k = 0; k < 8; ++k) {
    stats::trajectory_cut c;
    c.sample_index = k;
    c.time = cwc::sample_time(k, cfg.sample_period);
    c.dims = kDims;
    const std::uint64_t rows = k == 0 ? 20000 : 20;
    for (std::uint64_t t = 0; t < rows; ++t) {
      const auto s = sample(cfg, t, k);
      c.values.insert(c.values.end(), s.values.begin(), s.values.end());
    }
    cuts.push_back(std::move(c));
  }
  const auto want = serial_reference(cfg, cuts);

  recording_sink sink;
  cwcsim::analysis_stage stage(cfg, kDims, sink, 3);
  for (auto& c : cuts) stage.push(std::move(c));
  stage.finish();

  std::vector<std::uint64_t> order;
  for (const auto& w : sink.windows) order.push_back(w.first_sample);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 2, 4, 6}));
  expect_bit_identical(sink.windows, want);
}

// ------------------------------------------------ stop, loss and errors

TEST(AnalysisStage, StopMidRunEmitsTheReleasedPrefixInOrder) {
  for (const unsigned workers : {0u, 1u, 3u}) {
    SCOPED_TRACE(workers);
    const std::uint64_t n = 24, samples = 37, released = 20;
    const auto cfg = config(n, samples, 16, 8);
    auto cuts = assembled_cuts(cfg, samples);
    cuts.resize(released);
    const auto want = serial_reference(cfg, std::move(cuts));

    recording_sink sink;
    cwcsim::analysis_stage stage(cfg, kDims, sink, workers);
    // Every trajectory reports the first 20 samples; half of them run on
    // before the stop, leaving partially filled cuts behind.
    for (std::uint64_t t = 0; t < n; ++t) {
      const std::uint64_t last = t % 2 == 0 ? samples : released;
      for (std::uint64_t k = 0; k < last; ++k) stage.ingest(t, sample(cfg, t, k));
    }
    sink.stop = true;
    EXPECT_NO_THROW(stage.finish());
    expect_bit_identical(sink.windows, want);
  }
}

TEST(AnalysisStage, FinishDetectsATrajectoryThatNeverReported) {
  // Samples for only 1 of 2 expected trajectories: finish() must refuse
  // to silently drop the incomplete cut.
  for (const unsigned workers : {0u, 1u}) {
    auto cfg = config(2, 8, 4, 4);
    recording_sink sink;
    cwcsim::analysis_stage stage(cfg, kDims, sink, workers);
    stage.ingest(0, sample(cfg, 0, 0));
    EXPECT_THROW(stage.finish(), util::postcondition_error);
  }
}

TEST(AnalysisStage, ThrowingSummarySurfacesFromFinishWithItsType) {
  for (const unsigned workers : {0u, 1u, 3u}) {
    SCOPED_TRACE(workers);
    const auto cfg = config(2, 8, 4, 4);
    auto cuts = assembled_cuts(cfg, 8);
    cuts[0].values.pop_back();  // not a whole number of rows
    recording_sink sink;
    cwcsim::analysis_stage stage(cfg, kDims, sink, workers);
    // The failed stage keeps taking (and dropping) cuts, so whatever feeds
    // it drains instead of blocking; finish() reports the error.
    for (auto& c : cuts) EXPECT_NO_THROW(stage.push(std::move(c)));
    EXPECT_THROW(stage.finish(), util::precondition_error);
    EXPECT_TRUE(sink.windows.empty());
  }
}

TEST(AnalysisStage, DestructorJoinsWorkersWithoutFinish) {
  // The error and cancellation paths of the drivers unwind past the stage
  // without calling finish(): queued work is dropped, no thread leaks.
  const auto cfg = config(4, 64, 4, 4);
  recording_sink sink;
  {
    cwcsim::analysis_stage stage(cfg, kDims, sink, 3);
    for (std::uint64_t t = 0; t < 4; ++t)
      for (std::uint64_t k = 0; k < 64; ++k) stage.ingest(t, sample(cfg, t, k));
  }
  // Whatever was emitted before the drop is an ordered prefix.
  for (std::size_t i = 0; i < sink.windows.size(); ++i)
    EXPECT_EQ(sink.windows[i].first_sample, i * 4);
}

}  // namespace
