// Lockstep golden tests for the batch trajectory engine: every lane of a
// cwc::batch::batch_engine must replay bit-for-bit the sample path, clock,
// step count, stall flag, and final state of a scalar cwc::engine seeded
// with the same (seed, trajectory id) and driven with the same quantum
// schedule (the advance-one-quantum contract of core/quantum.hpp). Covered
// shapes: content-only rewrites (Neurospora), compartment creation/dissolve
// (compartment demo), and the churn model from the incremental suite
// (creation at two nesting levels, transport, dissolve with grandchild
// reparenting, subtree removal, any-context rules, MM kinetics). Quantum
// edge cases mirror cwc_incremental_test.cpp: lanes finishing mid-quantum,
// stalls (frozen sample tail), and request_stop() honoured at the quantum
// boundary through the session facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "core/cwcsim.hpp"
#include "cwc/cwc.hpp"
#include "models/models.hpp"
#include "simt/simt.hpp"
#include "window_equality.hpp"

namespace {

using testing_windows::expect_bit_identical;

// Same structural-churn model as cwc_incremental_test.cpp: every child
// fate, creation at two nesting levels, transport into a kept child, an
// any-context rule, and MM kinetics.
cwc::model make_churn_model() {
  cwc::model m;
  const auto A = m.declare_species("A");
  const auto B = m.declare_species("B");
  const auto mem = m.declare_species("m");
  const auto pod = m.declare_compartment_type("pod");

  auto root = std::make_unique<cwc::term>(cwc::top_compartment);
  root->content().add(A, 40);
  auto seed_pod = std::make_unique<cwc::compartment>(pod);
  seed_pod->wrap().add(mem);
  seed_pod->content().add(B, 2);
  root->add_child(std::move(seed_pod));
  m.set_initial(std::move(root));

  {
    cwc::rule r("make", cwc::top_compartment, cwc::rate_law::mass_action(0.4));
    r.consume(A, 2);
    cwc::comp_product p;
    p.type = pod;
    p.wrap.add(mem);
    p.content.add(B);
    r.create_compartment(std::move(p));
    m.add_rule(std::move(r));
  }
  {
    cwc::rule r("grow", pod, cwc::rate_law::mass_action(0.9));
    r.consume(B);
    r.produce(B, 2);
    m.add_rule(std::move(r));
  }
  {
    cwc::rule r("bud", pod, cwc::rate_law::mass_action(0.25));
    r.consume(B, 2);
    cwc::comp_product p;
    p.type = pod;
    p.wrap.add(mem);
    p.content.add(B);
    r.create_compartment(std::move(p));
    m.add_rule(std::move(r));
  }
  {
    cwc::rule r("xport", cwc::top_compartment, cwc::rate_law::mass_action(0.2));
    r.consume(A);
    r.match_child(cwc::comp_pattern{pod, {}, {}});
    r.produce_in_child(A);
    m.add_rule(std::move(r));
  }
  {
    cwc::rule r("pop", cwc::top_compartment, cwc::rate_law::mass_action(0.5));
    cwc::comp_pattern pat;
    pat.type = pod;
    pat.wrap_req.add(mem);
    pat.content_req.add(B, 3);
    r.match_child(std::move(pat));
    r.produce(A, 2);
    r.set_child_fate(cwc::child_fate::dissolve);
    m.add_rule(std::move(r));
  }
  {
    cwc::rule r("cull", cwc::top_compartment, cwc::rate_law::mass_action(0.15));
    cwc::comp_pattern pat;
    pat.type = pod;
    pat.content_req.add(B, 5);
    r.match_child(std::move(pat));
    r.set_child_fate(cwc::child_fate::remove);
    m.add_rule(std::move(r));
  }
  {
    cwc::rule r("decay", cwc::any_compartment, cwc::rate_law::mass_action(0.05));
    r.consume(B);
    m.add_rule(std::move(r));
  }
  {
    cwc::rule r("mm", cwc::top_compartment,
                cwc::rate_law::michaelis_menten(1.5, 8.0, A));
    r.consume(A);
    r.produce(B);
    m.add_rule(std::move(r));
  }

  m.add_observable("A", A, std::nullopt);
  m.add_observable("B", B, std::nullopt);
  m.add_observable("B-in-pods", B, pod);
  return m;
}

/// The scalar side of the lockstep: one quantum with the same horizon
/// clamp and stall fast-forward every backend worker applies
/// (core/quantum.hpp's advance_one_quantum, minus its cost record).
void advance_scalar_quantum(cwc::engine& e, double quantum, double t_end,
                            double sample_period,
                            std::vector<cwc::trajectory_sample>& out) {
  const double horizon = std::min(e.time() + quantum, t_end);
  e.run_to(horizon, sample_period, out);
  if (e.stalled() && e.time() < t_end) e.run_to(t_end, sample_period, out);
}

void expect_same_samples(const std::vector<cwc::trajectory_sample>& got,
                         const std::vector<cwc::trajectory_sample>& want,
                         std::size_t lane) {
  ASSERT_EQ(got.size(), want.size()) << "lane " << lane;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].time, want[i].time) << "lane " << lane << " sample " << i;
    ASSERT_EQ(got[i].values, want[i].values)
        << "lane " << lane << " sample " << i;
  }
}

/// Drive a batch of `width` lanes and `width` scalar engines through the
/// same quantum schedule and require bit-identical behaviour lane by lane.
/// The kernel mode is forced so the suite pins BOTH the wide kernels and
/// the scalar fallback against the scalar engine (automatic = whatever the
/// environment resolves).
void lockstep_batch(const cwc::model& m, std::uint64_t seed,
                    std::uint64_t first_id, std::size_t width, double quantum,
                    double t_end, double sample_period,
                    cwc::batch::kernel_mode mode =
                        cwc::batch::kernel_mode::automatic) {
  const auto cm = cwc::compiled_model::compile(m);
  ASSERT_TRUE(cwc::batch::batch_engine::supports(*cm));
  cwc::batch::batch_engine be(cm, seed, first_id, width, mode);
  if (mode != cwc::batch::kernel_mode::automatic) {
    ASSERT_EQ(be.active_kernel(), mode);
  }

  std::vector<cwc::engine> scalars;
  scalars.reserve(width);
  for (std::size_t i = 0; i < width; ++i)
    scalars.emplace_back(cm, seed, first_id + i);

  std::vector<std::vector<cwc::trajectory_sample>> bs(width), ss(width);
  bool any_live = true;
  int quanta = 0;
  while (any_live) {
    be.step_quantum(quantum, t_end, sample_period, bs);
    any_live = false;
    for (std::size_t i = 0; i < width; ++i) {
      if (scalars[i].time() < t_end || quanta == 0)
        advance_scalar_quantum(scalars[i], quantum, t_end, sample_period,
                               ss[i]);
      ASSERT_EQ(be.time(i), scalars[i].time())
          << "lane " << i << " after quantum " << quanta;
      ASSERT_EQ(be.steps(i), scalars[i].steps())
          << "lane " << i << " after quantum " << quanta;
      ASSERT_EQ(be.stalled(i), scalars[i].stalled())
          << "lane " << i << " after quantum " << quanta;
      if (be.time(i) < t_end) any_live = true;
    }
    ++quanta;
    ASSERT_LT(quanta, 100000) << "lockstep runaway";
  }
  for (std::size_t i = 0; i < width; ++i) {
    expect_same_samples(bs[i], ss[i], i);
    EXPECT_TRUE(be.materialize_state(i)->equals(scalars[i].state()))
        << "final state diverged on lane " << i;
  }
}

constexpr cwc::batch::kernel_mode kBothKernels[] = {
    cwc::batch::kernel_mode::wide, cwc::batch::kernel_mode::scalar};
constexpr std::size_t kLockstepWidths[] = {1, 4, 32, 64};

TEST(BatchEngine, LockstepNeurosporaAcrossWidthsAndKernels) {
  const auto m = models::make_neurospora_cwc({});
  for (const auto mode : kBothKernels)
    for (const std::size_t width : kLockstepWidths)
      lockstep_batch(m, 17, 0, width, 0.7, 12.0, 0.5, mode);
}

TEST(BatchEngine, LockstepCompartmentDemoAcrossWidthsAndKernels) {
  const auto m = models::make_compartment_demo({});
  for (const auto mode : kBothKernels)
    for (const std::size_t width : kLockstepWidths)
      lockstep_batch(m, 23, 0, width, 0.7, 12.0, 0.5, mode);
}

TEST(BatchEngine, LockstepChurnModelStructuralRewrites) {
  // Creation at two nesting levels, dissolve with grandchild reparenting,
  // subtree removal, any-context rules — the structural-relayout stress —
  // under both kernels (structural carries + wide re-sweeps must agree).
  for (const auto mode : kBothKernels)
    lockstep_batch(make_churn_model(), 31, 0, 8, 0.5, 6.0, 0.25, mode);
}

TEST(BatchEngine, KernelModeResolution) {
  const auto cm =
      cwc::compiled_model::compile(models::make_neurospora_cwc({}));
  {
    cwc::batch::batch_engine be(cm, 1, 0, 4, cwc::batch::kernel_mode::scalar);
    EXPECT_EQ(be.active_kernel(), cwc::batch::kernel_mode::scalar);
  }
  {
    cwc::batch::batch_engine be(cm, 1, 0, 4, cwc::batch::kernel_mode::wide);
    EXPECT_EQ(be.active_kernel(), cwc::batch::kernel_mode::wide);
  }
  // automatic honours CWCSIM_BATCH_KERNEL, defaulting to wide.
  ::setenv("CWCSIM_BATCH_KERNEL", "scalar", 1);
  {
    cwc::batch::batch_engine be(cm, 1, 0, 4);
    EXPECT_EQ(be.active_kernel(), cwc::batch::kernel_mode::scalar);
  }
  ::unsetenv("CWCSIM_BATCH_KERNEL");
  {
    cwc::batch::batch_engine be(cm, 1, 0, 4);
    EXPECT_EQ(be.active_kernel(), cwc::batch::kernel_mode::wide);
  }
}

TEST(BatchEngine, LockstepNonZeroFirstTrajectoryId) {
  // Lane i must draw from stream (seed, first_id + i) — the partitioning
  // the backends use when slicing a campaign into batches.
  lockstep_batch(models::make_neurospora_cwc({}), 29, 1000, 4, 1.5, 9.0, 0.5);
}

TEST(BatchEngine, LaneFinishesMidQuantum) {
  // t_end is not a multiple of the quantum: the last quantum's horizon
  // clamps to t_end and the lane retires mid-quantum.
  lockstep_batch(models::make_neurospora_cwc({}), 7, 0, 4, 2.0, 3.1, 0.5);
  // A quantum larger than the whole horizon: one quantum finishes all lanes.
  lockstep_batch(models::make_compartment_demo({}), 7, 0, 4, 50.0, 3.0, 0.5);
}

TEST(BatchEngine, StallEmitsFrozenTailAndMatchesScalar) {
  // 2A -> B exhausts its reactant pairs: every lane stalls, and the frozen
  // sample grid must still be emitted up to t_end, exactly like the scalar
  // stall fast-forward.
  cwc::model m;
  m.set_initial(cwc::parse_term(m, "7*A"));
  m.add_rule(cwc::parse_rule(m, "fuse", "top: 2*A -> B @ 1.0"));
  m.add_observable("A", m.species().id("A"));
  m.add_observable("B", m.species().id("B"));

  const auto cm = cwc::compiled_model::compile(m);
  cwc::batch::batch_engine be(cm, 5, 0, 4);
  std::vector<std::vector<cwc::trajectory_sample>> bs;
  be.step_quantum(5.0, 50.0, 1.0, bs);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(be.stalled(i));
    EXPECT_EQ(be.time(i), 50.0);  // fast-forwarded to t_end inside quantum 1
    ASSERT_EQ(bs[i].size(), 51u) << "full frozen grid on lane " << i;
  }
  // And bit-exact against scalar engines driven the same way.
  lockstep_batch(m, 5, 0, 4, 5.0, 50.0, 1.0);
}

TEST(BatchEngine, ShapeClassesSharedAcrossLanes) {
  // Neurospora never rewrites its tree: all lanes stay in ONE shape class.
  const auto cm =
      cwc::compiled_model::compile(models::make_neurospora_cwc({}));
  cwc::batch::batch_engine be(cm, 3, 0, 16);
  std::vector<std::vector<cwc::trajectory_sample>> out;
  for (int q = 0; q < 8; ++q) be.step_quantum(1.0, 8.0, 0.5, out);
  EXPECT_EQ(be.num_shape_classes(), 1u);
}

TEST(BatchEngine, BatchedGpuBackendSurvivesStaggeredGroupRetirement) {
  // Compartment-demo lanes stall (and fast-forward to t_end) at widely
  // different simulation times, so with small batch groups whole groups
  // retire while others keep running for many more kernels. A retired
  // group's sample buffers must not be re-ingested by later rounds —
  // windows must stay bit-identical to the scalar multicore{} run.
  const auto m = models::make_compartment_demo({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 12;
  cfg.t_end = 200.0;  // long enough that every lane stalls, at its own time
  cfg.sample_period = 2.0;
  cfg.quantum = 5.0;
  cfg.sim_workers = 2;
  cfg.window_size = 4;
  cfg.window_slide = 4;
  cfg.kmeans_k = 0;
  cfg.seed = 99;

  const auto farm = cwcsim::run(m, cfg, cwcsim::multicore{});
  const auto expect_same_windows = [&](const cwcsim::run_report& r) {
    ASSERT_EQ(r.result.completions.size(), cfg.num_trajectories);
    expect_bit_identical(r.result.windows, farm.result.windows);
  };

  const auto gpu_batched = cwcsim::run(
      m, cfg, cwcsim::gpu{simt::devices::laptop_gpu(), /*batch_width=*/2});
  EXPECT_GT(gpu_batched.device->kernels, 1u);  // retirement really staggers
  expect_same_windows(gpu_batched);

  // The batched multicore driver shares the retired-group hazard; hold it
  // to the same staggered-retirement bar.
  const auto mc_batched =
      cwcsim::run(m, cfg, cwcsim::multicore{/*batch_width=*/2});
  expect_same_windows(mc_batched);
}

TEST(BatchEngine, RejectsFlatAndCustomLawModels) {
  const auto flat =
      cwc::compiled_model::compile(models::make_neurospora_flat({}));
  EXPECT_FALSE(cwc::batch::batch_engine::supports(*flat));

  cwc::model m;
  m.set_initial(cwc::parse_term(m, "5*A"));
  cwc::rule r("odd", cwc::top_compartment,
              cwc::rate_law::custom([](const cwc::rate_ctx& ctx) {
                return ctx.combinations * 0.5;
              }));
  r.consume(m.species().id("A"));
  m.add_rule(std::move(r));
  m.add_observable("A", m.species().id("A"));
  const auto cm = cwc::compiled_model::compile(m);
  EXPECT_FALSE(cwc::batch::batch_engine::supports(*cm));
}

}  // namespace
