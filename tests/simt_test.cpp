// Tests for the SIMT execution model: warp packing, divergence accounting,
// slot scheduling, the GPU pipeline model, and the gpu backend's device
// model against its host pool width. The gpu backend's windows and kernel
// counts against the serial oracle are conformance_test's gpu rows.
#include <gtest/gtest.h>

#include "core/cwcsim.hpp"
#include "models/models.hpp"
#include "simt/simt.hpp"
#include "window_equality.hpp"

namespace {

using testing_windows::expect_bit_identical;

simt::device_spec tiny_device() {
  simt::device_spec d;
  d.name = "tiny";
  d.warp_size = 4;
  d.concurrent_warps = 2;
  d.kernel_launch_s = 0.0;
  d.step_slowdown = 1.0;
  return d;
}

TEST(KernelMakespan, UniformLanesNoDivergence) {
  const std::vector<double> lanes(8, 1.0);  // 2 warps of 4, 2 slots
  const auto st = simt::kernel_makespan(lanes, tiny_device());
  EXPECT_DOUBLE_EQ(st.device_seconds, 1.0);
  EXPECT_EQ(st.warps, 2u);
  EXPECT_DOUBLE_EQ(st.divergence_factor(), 1.0);
}

TEST(KernelMakespan, DivergenceIsLaneMax) {
  // One warp: lanes 1,1,1,9 -> warp runs 9s; divergence 4*9/12 = 3.
  const std::vector<double> lanes = {1.0, 1.0, 1.0, 9.0};
  const auto st = simt::kernel_makespan(lanes, tiny_device());
  EXPECT_DOUBLE_EQ(st.device_seconds, 9.0);
  EXPECT_DOUBLE_EQ(st.divergence_factor(), 3.0);
}

TEST(KernelMakespan, SlotSchedulingQueuesExcessWarps) {
  // 4 warps of 1s on 2 slots -> two rounds -> 2s.
  const std::vector<double> lanes(16, 1.0);
  const auto st = simt::kernel_makespan(lanes, tiny_device());
  EXPECT_DOUBLE_EQ(st.device_seconds, 2.0);
  EXPECT_EQ(st.warps, 4u);
}

TEST(KernelMakespan, LaunchOverheadAdds) {
  auto dev = tiny_device();
  dev.kernel_launch_s = 0.5;
  const std::vector<double> lanes(4, 1.0);
  EXPECT_DOUBLE_EQ(simt::kernel_makespan(lanes, dev).device_seconds, 1.5);
}

TEST(KernelMakespan, EmptyKernelIsFree) {
  const auto st = simt::kernel_makespan({}, tiny_device());
  EXPECT_DOUBLE_EQ(st.device_seconds, 0.0);
  EXPECT_EQ(st.warps, 0u);
}

TEST(KernelMakespan, PartialLastWarp) {
  // 5 lanes with warp 4: second warp has one lane.
  const std::vector<double> lanes = {1, 1, 1, 1, 2};
  const auto st = simt::kernel_makespan(lanes, tiny_device());
  EXPECT_EQ(st.warps, 2u);
  EXPECT_DOUBLE_EQ(st.device_seconds, 2.0);  // both warps fit in the 2 slots
}

TEST(GpuModel, CompletesAllCutsAndReportsDivergence) {
  const auto m = models::make_neurospora_cwc({});
  cwcsim::model_ref mr;
  mr.tree = &m;
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 64;
  cfg.t_end = 10.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 2.0;
  const auto w = des::capture_workload(mr, cfg);
  des::calibration cal;

  const auto out = simt::simulate_gpu(w, cal, simt::devices::tesla_k40(),
                                      des::platforms::ec2_quadcore_vm(), {});
  EXPECT_EQ(out.pipeline.cuts, w.num_samples);
  EXPECT_EQ(out.kernels, w.max_quanta_per_trajectory());
  EXPECT_GE(out.divergence_factor, 1.0);
  EXPECT_LE(out.divergence_factor, 32.0);
  EXPECT_GT(out.pipeline.makespan_s, 0.0);
  EXPECT_GE(out.pipeline.makespan_s, out.device_busy_s - 1e-9);
}

TEST(GpuModel, MoreTrajectoriesSublinearUntilSaturation) {
  // GPU time grows much slower than linearly while warp slots are free —
  // the Table I phenomenon (GPU loses at N=128, wins at N>=512).
  const auto m = models::make_neurospora_cwc({});
  cwcsim::model_ref mr;
  mr.tree = &m;
  des::calibration cal;

  auto modeled = [&](std::uint64_t n) {
    cwcsim::sim_config cfg;
    cfg.num_trajectories = n;
    cfg.t_end = 5.0;
    cfg.sample_period = 0.5;
    cfg.quantum = 2.5;
    const auto w = des::capture_workload(mr, cfg);
    return simt::simulate_gpu(w, cal, simt::devices::tesla_k40(),
                              des::platforms::ec2_quadcore_vm(), {})
        .pipeline.makespan_s;
  };
  const double t128 = modeled(128);
  const double t512 = modeled(512);
  EXPECT_LT(t512, 2.0 * t128);  // 4x work for < 2x time
}

TEST(GpuSimulator, HostWorkersChangeNeitherResultsNorDeviceModel) {
  // The host emulates each kernel on the cfg.sim_workers pool, while the
  // device model is built from per-lane step counts: one and three host
  // workers give the same windows, completions (in lane order per kernel)
  // and kernel count, and the same divergence factor. Device seconds are
  // not compared: their scale is a wall-clock calibration per run, which
  // the divergence ratio cancels up to rounding.
  models::compartment_demo_params p;
  p.k_form = 0.2;  // lanes stall at their own times: uneven warps
  const auto m = models::make_compartment_demo(p);
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 40;
  cfg.t_end = 12.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 1.5;
  cfg.stat_engines = 2;
  cfg.window_size = 5;
  cfg.window_slide = 5;

  for (const std::size_t width : {0u, 32u}) {
    SCOPED_TRACE(testing::Message() << "batch width " << width);
    const cwcsim::gpu b{simt::devices::tesla_k40(), width};
    auto one = cfg;
    one.sim_workers = 1;
    auto three = cfg;
    three.sim_workers = 3;
    const auto r1 = cwcsim::run(m, one, b);
    const auto r3 = cwcsim::run(m, three, b);

    expect_bit_identical(r3.result.windows, r1.result.windows);
    ASSERT_EQ(r1.result.completions.size(), cfg.num_trajectories);
    ASSERT_EQ(r3.result.completions.size(), cfg.num_trajectories);
    for (std::size_t i = 0; i < cfg.num_trajectories; ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(r3.result.completions[i].trajectory_id,
                r1.result.completions[i].trajectory_id);
      EXPECT_EQ(r3.result.completions[i].quanta, r1.result.completions[i].quanta);
      EXPECT_EQ(r3.result.completions[i].steps, r1.result.completions[i].steps);
    }
    ASSERT_TRUE(r1.device.has_value());
    ASSERT_TRUE(r3.device.has_value());
    EXPECT_EQ(r3.device->kernels, r1.device->kernels);
    EXPECT_NEAR(r3.device->divergence_factor, r1.device->divergence_factor,
                1e-9 * r1.device->divergence_factor);
    EXPECT_GT(r1.device->divergence_factor, 1.0);
    EXPECT_EQ(r1.result.sim_workers, 1u);
    EXPECT_EQ(r3.result.sim_workers, 3u);
  }
}

}  // namespace
