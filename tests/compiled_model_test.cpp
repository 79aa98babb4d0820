// Golden tests for the compile-once layer (cwc/compiled_model.hpp): every
// engine built from a shared compiled artifact must produce bit-for-bit
// the sample path of an engine built on its own private artifact, across
// both engine kinds (tree and flat direct-method); every backend runs on
// that artifact in conformance_test's matrix. Also proves, with a
// counting global allocator, that per-trajectory tree-engine construction
// no longer allocates the static dependency tables.
#include <gtest/gtest.h>

#include <vector>

#include "core/cwcsim.hpp"
#include "counting_allocator.hpp"
#include "cwc/cwc.hpp"
#include "models/models.hpp"

namespace {

void expect_same_samples(const std::vector<cwc::trajectory_sample>& a,
                         const std::vector<cwc::trajectory_sample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << "sample " << i;
    EXPECT_EQ(a[i].values, b[i].values) << "sample " << i;
  }
}

// Tree engine: one shared artifact, many trajectories, both cache modes —
// bit-identical to engines that each compiled a private artifact.
TEST(CompiledModel, TreeEngineBitExactVsPrivateRecompile) {
  for (const bool demo : {false, true}) {
    const cwc::model m = demo ? models::make_compartment_demo({})
                              : models::make_neurospora_cwc({});
    const auto cm = cwc::compiled_model::compile(m);
    ASSERT_TRUE(cm->is_tree());

    for (const auto mode :
         {cwc::engine_mode::incremental, cwc::engine_mode::reference}) {
      for (std::uint64_t id = 0; id < 3; ++id) {
        cwc::engine own(cwc::compiled_model::compile(m), 29, id, mode);
        cwc::engine shared_eng(cm, 29, id, mode);      // shared artifact
        std::vector<cwc::trajectory_sample> ls, ss;
        // Drive the shared engine in small quanta against one private sweep
        // so the quantum-deferral path is exercised too.
        own.run_to(15.0, 0.5, ls);
        for (double t = 0.0; t < 15.0;) {
          t = std::min(t + 0.8, 15.0);
          shared_eng.run_to(t, 0.5, ss);
        }
        expect_same_samples(ss, ls);
        EXPECT_EQ(shared_eng.steps(), own.steps());
        EXPECT_TRUE(shared_eng.state().equals(own.state()));
        EXPECT_TRUE(shared_eng.check_match_cache());
      }
    }
  }
}

// Flat direct-method engines from one shared artifact.
TEST(CompiledModel, FlatEnginesBitExactVsPrivateRecompile) {
  const auto net = models::make_neurospora_flat({});
  const auto cm = cwc::compiled_model::compile(net);
  ASSERT_FALSE(cm->is_tree());

  for (std::uint64_t id = 0; id < 3; ++id) {
    cwc::flat_engine own(cwc::compiled_model::compile(net), 31, id);
    cwc::flat_engine shared_eng(cm, 31, id);
    std::vector<cwc::trajectory_sample> ls, ss;
    own.run_to(20.0, 0.5, ls);
    shared_eng.run_to(20.0, 0.5, ss);
    expect_same_samples(ss, ls);
    EXPECT_EQ(shared_eng.steps(), own.steps());
  }
}

// Interleaved stepping of many engines on ONE artifact must not cross-talk:
// each trajectory stays the pure function of (model, seed, id) it was.
TEST(CompiledModel, SharedArtifactHasNoCrossTalk) {
  const auto m = models::make_compartment_demo({});
  const auto cm = cwc::compiled_model::compile(m);

  constexpr std::uint64_t kEngines = 6;
  std::vector<cwc::engine> farm;
  farm.reserve(kEngines);
  for (std::uint64_t id = 0; id < kEngines; ++id) farm.emplace_back(cm, 7, id);

  // Round-robin the farm, then compare every trajectory with a fresh
  // solo engine run to the same horizon.
  std::vector<std::vector<cwc::trajectory_sample>> got(kEngines);
  for (int round = 1; round <= 10; ++round) {
    for (std::uint64_t id = 0; id < kEngines; ++id)
      farm[id].run_to(round * 1.5, 0.5, got[id]);
  }
  for (std::uint64_t id = 0; id < kEngines; ++id) {
    cwc::engine solo(cm, 7, id);
    std::vector<cwc::trajectory_sample> want;
    solo.run_to(15.0, 0.5, want);
    expect_same_samples(got[id], want);
  }
}

// The single-walk observable plans must agree exactly with the model's
// per-observable tree walks on evolving states (scoped and unscoped).
TEST(CompiledModel, ObservablePlansMatchModelObserve) {
  const auto m = models::make_compartment_demo({});
  const auto cm = cwc::compiled_model::compile(m);
  cwc::engine eng(cm, 13, 0);
  std::vector<std::uint64_t> scratch;
  std::vector<double> fast;
  for (int i = 0; i < 200; ++i) {
    if (!eng.step()) break;
    cm->observe_all(eng.state(), scratch, fast);
    EXPECT_EQ(fast, m.observe_all(eng.state())) << "step " << i;
  }
}

// The point of the layer: constructing an engine from the shared artifact
// allocates strictly less than compiling a private artifact per engine,
// because the dependency tables / slot maps / footprints are not rebuilt.
TEST(CompiledModel, ConstructionSkipsStaticTableAllocations) {
  const auto m = models::make_neurospora_cwc({});
  const auto cm = cwc::compiled_model::compile(m);

  auto ctor_allocs = [&](auto&& make) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    make();
    return g_allocs.load(std::memory_order_relaxed) - before;
  };

  // Warm both paths once (gtest internals, lazy locale setup, ...).
  (void)ctor_allocs(
      [&] { cwc::engine e(cwc::compiled_model::compile(m), 3, 0); });
  (void)ctor_allocs([&] { cwc::engine e(cm, 3, 0); });

  const std::uint64_t own = ctor_allocs(
      [&] { cwc::engine e(cwc::compiled_model::compile(m), 3, 1); });
  const std::uint64_t shared_path =
      ctor_allocs([&] { cwc::engine e(cm, 3, 1); });

  // A private artifact per engine means applicable-rule lists, slot maps,
  // four footprint bitmaps per rule and three redo lists per rule all get
  // allocated again. Sharing must cut construction allocations by well
  // more than those tables (neurospora: 6 rules -> dozens of vectors).
  EXPECT_LT(shared_path, own);
  EXPECT_LE(shared_path + 20, own)
      << "shared-artifact construction still rebuilds static tables "
      << "(private " << own << " allocs, shared " << shared_path << ")";

  // And construction cost is stable run to run (no hidden lazy state).
  EXPECT_EQ(shared_path, ctor_allocs([&] { cwc::engine e(cm, 3, 2); }));
}

}  // namespace
