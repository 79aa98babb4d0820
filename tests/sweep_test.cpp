// Sweep-campaign subsystem tests: plan materialization, typed validation,
// the one-compile-per-campaign guarantee (overlays share the root's tables),
// and the determinism contract — every (cell, trajectory) replays a
// standalone engine on a FULL RECOMPILE of the patched model at the same
// seed, bit for bit, on the farm and the batched backend at several widths,
// and the report reductions are invariant to worker count, scheduling and
// window geometry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "models/models.hpp"
#include "serial_oracle.hpp"
#include "stats/quantile.hpp"
#include "sweep/sweep.hpp"

namespace {

using cwcsim::sweep::rate_override;

cwcsim::sim_config small_config() {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 5;  // N per cell
  cfg.t_end = 4.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 1.0;
  cfg.sim_workers = 3;
  cfg.window_size = 4;
  cfg.window_slide = 4;
  cfg.kmeans_k = 2;
  cfg.seed = 0xBADA55;
  return cfg;
}

/// Reference reductions computed independently of the sweep runner: cuts
/// assembled per sample index from standalone trajectories of `cm`, each
/// folded in trajectory order with the same Welford/P-squared/k-means
/// primitives.
std::vector<cwcsim::sweep::point_summary> reference_points(
    std::shared_ptr<const cwc::compiled_model> cm,
    const cwcsim::sim_config& cfg) {
  const std::size_t obs = cm->num_observables();
  struct cut {
    double time = 0.0;
    std::vector<double> values;  // row-major trajectories x obs
  };
  std::map<std::uint64_t, cut> cuts;
  for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i) {
    for (const auto& s : oracle::replay_trajectory(cm, cfg, i).samples) {
      const auto k =
          static_cast<std::uint64_t>(s.time / cfg.sample_period + 0.5);
      auto [it, fresh] = cuts.try_emplace(k);
      if (fresh) {
        it->second.time = s.time;
        it->second.values.assign(cfg.num_trajectories * obs, 0.0);
      }
      std::copy(s.values.begin(), s.values.end(),
                it->second.values.begin() + static_cast<std::ptrdiff_t>(i * obs));
    }
  }
  std::vector<cwcsim::sweep::point_summary> points;
  for (const auto& [k, c] : cuts) {
    cwcsim::sweep::point_summary p;
    p.sample_index = k;
    p.time = c.time;
    p.observables.resize(obs);
    for (std::size_t d = 0; d < obs; ++d) {
      auto& os = p.observables[d];
      stats::p2_quantile q10(0.1), q50(0.5), q90(0.9);
      for (std::size_t i = 0; i < cfg.num_trajectories; ++i) {
        const double x = c.values[i * obs + d];
        os.moments.add(x);
        q10.add(x);
        q50.add(x);
        q90.add(x);
      }
      os.q10 = q10.value();
      os.q50 = q50.value();
      os.q90 = q90.value();
    }
    p.clusters = stats::kmeans(c.values, obs, cfg.kmeans_k, cfg.seed);
    points.push_back(std::move(p));
  }
  return points;
}

/// Exact (bitwise, via ==) equality of a sweep cell against the reference.
void expect_points_equal(const std::vector<cwcsim::sweep::point_summary>& got,
                         const std::vector<cwcsim::sweep::point_summary>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(got[i].sample_index, want[i].sample_index);
    EXPECT_EQ(got[i].time, want[i].time);
    ASSERT_EQ(got[i].observables.size(), want[i].observables.size());
    for (std::size_t d = 0; d < got[i].observables.size(); ++d) {
      const auto& g = got[i].observables[d];
      const auto& w = want[i].observables[d];
      EXPECT_EQ(g.moments.count(), w.moments.count());
      EXPECT_EQ(g.moments.mean(), w.moments.mean());
      EXPECT_EQ(g.moments.variance(), w.moments.variance());
      EXPECT_EQ(g.moments.min(), w.moments.min());
      EXPECT_EQ(g.moments.max(), w.moments.max());
      EXPECT_EQ(g.q10, w.q10);
      EXPECT_EQ(g.q50, w.q50);
      EXPECT_EQ(g.q90, w.q90);
    }
    EXPECT_EQ(got[i].clusters.centroids, want[i].clusters.centroids);
    EXPECT_EQ(got[i].clusters.sizes, want[i].clusters.sizes);
    EXPECT_EQ(got[i].clusters.inertia, want[i].clusters.inertia);
  }
}

// ---- plan ------------------------------------------------------------------

TEST(SweepPlan, CartesianProductRowMajor) {
  const auto cells = cwcsim::sweep::plan()
                         .axis("k1", {1.0, 2.0})
                         .axis("k2", {10.0, 20.0, 30.0})
                         .cells();
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].overrides,
            (std::vector<rate_override>{{"k1", 1.0}, {"k2", 10.0}}));
  EXPECT_EQ(cells[1].overrides,
            (std::vector<rate_override>{{"k1", 1.0}, {"k2", 20.0}}));
  EXPECT_EQ(cells[3].overrides,
            (std::vector<rate_override>{{"k1", 2.0}, {"k2", 10.0}}));
  EXPECT_EQ(cells[5].overrides,
            (std::vector<rate_override>{{"k1", 2.0}, {"k2", 30.0}}));
}

TEST(SweepPlan, ExplicitCellsAppendAfterGrid) {
  const auto p = cwcsim::sweep::plan()
                     .axis("k1", {1.0, 2.0})
                     .add_cell({{"k1", 7.0}, {"k9", 0.5}});
  EXPECT_EQ(p.num_cells(), 3u);
  const auto cells = p.cells();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[2].overrides,
            (std::vector<rate_override>{{"k1", 7.0}, {"k9", 0.5}}));
}

TEST(SweepPlan, Linspace) {
  const auto p = cwcsim::sweep::plan().axis_linspace("k", 1.0, 3.0, 5);
  ASSERT_EQ(p.axes().size(), 1u);
  EXPECT_EQ(p.axes()[0].values,
            (std::vector<double>{1.0, 1.5, 2.0, 2.5, 3.0}));
  EXPECT_EQ(cwcsim::sweep::plan().axis_linspace("k", 4.0, 9.0, 1).axes()[0]
                .values,
            std::vector<double>{4.0});
}

// ---- validation ------------------------------------------------------------

TEST(SweepValidate, TypedErrors) {
  const auto cfg = small_config();
  const cwcsim::backend mc = cwcsim::multicore{};

  const auto field_of = [&](const cwcsim::sweep::plan& p,
                            const cwcsim::backend& b) -> std::string {
    try {
      cwcsim::validate(cfg, b, p);
    } catch (const cwcsim::config_error& e) {
      return e.field();
    }
    return "";
  };

  // No cells at all.
  EXPECT_EQ(field_of(cwcsim::sweep::plan(), mc), "sweep.plan");
  // Empty axis.
  EXPECT_EQ(field_of(cwcsim::sweep::plan().axis("k1", {}), mc), "sweep.axis");
  // Duplicate axis name.
  EXPECT_EQ(
      field_of(cwcsim::sweep::plan().axis("k1", {1.0}).axis("k1", {2.0}), mc),
      "sweep.axis");
  // Duplicate parameter cell (explicit cell repeating a grid point).
  EXPECT_EQ(field_of(cwcsim::sweep::plan()
                         .axis("k1", {1.0, 2.0})
                         .add_cell({{"k1", 2.0}}),
                     mc),
            "sweep.cells");
  // Sweeps are a multicore-backend feature.
  EXPECT_EQ(field_of(cwcsim::sweep::plan().axis("k1", {1.0}),
                     cwcsim::distributed{2, 1}),
            "backend");
  // N == 0 is rejected by the base config validation.
  auto zero = cfg;
  zero.num_trajectories = 0;
  EXPECT_THROW(
      cwcsim::validate(zero, mc, cwcsim::sweep::plan().axis("k1", {1.0})),
      cwcsim::config_error);
}

TEST(SweepValidate, UnknownRateNameRejectedAtRun) {
  const auto net = models::make_schlogl({});
  try {
    (void)cwcsim::run_sweep(net, small_config(),
                            cwcsim::sweep::plan().axis("no_such_rate", {1.0}));
    FAIL() << "expected config_error";
  } catch (const cwcsim::config_error& e) {
    EXPECT_EQ(e.field(), "sweep.overlay");
  }
}

TEST(SweepValidate, NonMassActionOverlayRejected) {
  // A reaction under an MM law has no single "rate constant" to overlay.
  cwc::reaction_network net;
  const auto s = net.declare_species("S");
  const auto p = net.declare_species("P");
  net.set_initial(s, 100);
  net.add_reaction("convert", {{s, 1}}, {{p, 1}},
                   cwc::rate_law::michaelis_menten(2.0, 50.0, s));
  try {
    (void)cwcsim::run_sweep(net, small_config(),
                            cwcsim::sweep::plan().axis("convert", {1.0}));
    FAIL() << "expected config_error";
  } catch (const cwcsim::config_error& e) {
    EXPECT_EQ(e.field(), "sweep.overlay");
  }
}

// An infinite overlay constant would make every firing take zero time. The
// overlay rejects it with overlay_error, which run_sweep reports as
// config_error{"sweep.overlay"} (NonMassActionOverlayRejected above), so no
// engine ever runs it.
TEST(SweepValidate, InfiniteOverlayConstantRejected) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const auto m = models::make_compartment_demo({});
  const auto tree = cwc::compiled_model::compile(m);
  EXPECT_THROW(cwc::compiled_model::overlay(tree, {{"grow", inf}}),
               cwc::overlay_error);
  const auto net = models::make_schlogl({});
  const auto flat = cwc::compiled_model::compile(net);
  EXPECT_THROW(cwc::compiled_model::overlay(flat, {{"inflow", inf}}),
               cwc::overlay_error);
}

// ---- determinism: sweep == standalone recompile ----------------------------

TEST(SweepCampaign, FlatFarmMatchesRecompiledStandalone) {
  const auto net = models::make_schlogl({});
  const auto cfg = small_config();
  const auto plan = cwcsim::sweep::plan().axis("inflow", {150.0, 250.0});

  const auto rep = cwcsim::run_sweep(net, cfg, plan);
  ASSERT_EQ(rep.cells.size(), 2u);
  EXPECT_FALSE(rep.stopped);

  // Reference: a FULL RECOMPILE of the patched model, standalone engines at
  // the same (seed, per-cell trajectory id), reductions folded by hand.
  const double inflows[] = {150.0, 250.0};
  for (std::size_t c = 0; c < 2; ++c) {
    SCOPED_TRACE(c);
    models::schlogl_params p;
    p.c3 = inflows[c];
    const auto patched = models::make_schlogl(p);
    const auto cm = cwc::compiled_model::compile(patched);
    EXPECT_EQ(rep.cells[c].overrides,
              (std::vector<rate_override>{{"inflow", inflows[c]}}));
    EXPECT_EQ(rep.cells[c].trajectories, cfg.num_trajectories);
    expect_points_equal(rep.cells[c].points, reference_points(cm, cfg));
  }
}

TEST(SweepCampaign, TreeBackendsAndWidthsMatchRecompiledStandalone) {
  const auto m = models::make_compartment_demo({});
  auto cfg = small_config();
  cfg.num_trajectories = 6;
  const auto plan = cwcsim::sweep::plan().axis("grow", {0.6, 1.4});

  // Farm, batched at width 1 (farm fallback), a width that slices groups
  // across the cell boundary, and one wide enough for a single multi-cell
  // group.
  const std::size_t widths[] = {0, 1, 4, 32};
  std::vector<std::string> jsons;
  for (const std::size_t w : widths) {
    SCOPED_TRACE(w);
    const auto rep =
        cwcsim::run_sweep(m, cfg, plan, cwcsim::multicore{w});
    ASSERT_EQ(rep.cells.size(), 2u);
    jsons.push_back(rep.to_json());

    const double grows[] = {0.6, 1.4};
    for (std::size_t c = 0; c < 2; ++c) {
      SCOPED_TRACE(c);
      models::compartment_demo_params p;
      p.k_grow = grows[c];
      const auto patched = models::make_compartment_demo(p);
      const auto cm = cwc::compiled_model::compile(patched);
      expect_points_equal(rep.cells[c].points, reference_points(cm, cfg));
    }
  }
  // Byte-identical reports across every backend/width.
  for (std::size_t i = 1; i < jsons.size(); ++i) EXPECT_EQ(jsons[0], jsons[i]);
}

TEST(SweepCampaign, ReportInvariantToWorkerCount) {
  const auto net = models::make_schlogl({});
  const auto plan = cwcsim::sweep::plan().axis("inflow", {150.0, 200.0, 250.0});
  std::vector<std::string> jsons;
  for (const unsigned workers : {1u, 2u, 5u}) {
    auto cfg = small_config();
    cfg.sim_workers = workers;
    jsons.push_back(cwcsim::run_sweep(net, cfg, plan).to_json());
  }
  EXPECT_EQ(jsons[0], jsons[1]);
  EXPECT_EQ(jsons[0], jsons[2]);
}

// ---- one compile per campaign ----------------------------------------------

TEST(SweepCampaign, OneCompilePerCampaign) {
  const auto m = models::make_compartment_demo({});
  auto cfg = small_config();
  cfg.num_trajectories = 3;
  const auto plan = cwcsim::sweep::plan().axis_linspace("grow", 0.5, 2.0, 4);

  const std::uint64_t before = cwc::compiled_model::compile_count();
  const auto rep = cwcsim::run_sweep(m, cfg, plan, cwcsim::multicore{8});
  EXPECT_EQ(cwc::compiled_model::compile_count() - before, 1u)
      << "a 4-cell campaign must compile exactly once";
  EXPECT_EQ(rep.cells.size(), 4u);
}

// An overlay is cheap because it shares the structural root's static tables
// instead of rebuilding them: every table accessor of an overlay, and of an
// overlay of an overlay, returns the root's own object, and no overlay
// counts as a compile.
TEST(SweepCampaign, OverlaysShareTheRootTablesWithoutCompiling) {
  const auto m = models::make_compartment_demo({});
  const auto root = cwc::compiled_model::compile(m);
  const auto net = models::make_schlogl({});
  const auto flat_root = cwc::compiled_model::compile(net);

  const std::uint64_t before = cwc::compiled_model::compile_count();
  const auto once = cwc::compiled_model::overlay(root, {{"grow", 2.0}});
  const auto twice = cwc::compiled_model::overlay(once, {{"grow", 0.5}});
  const auto flat_once =
      cwc::compiled_model::overlay(flat_root, {{"inflow", 150.0}});
  const auto flat_twice =
      cwc::compiled_model::overlay(flat_once, {{"outflow", 3.0}});
  EXPECT_EQ(cwc::compiled_model::compile_count(), before);

  const std::size_t types = m.compartment_types().size();
  for (const auto& ov : {once, twice}) {
    ASSERT_TRUE(ov->is_overlay());
    EXPECT_EQ(&ov->rules(), &root->rules());
    EXPECT_EQ(&ov->observable_plans(), &root->observable_plans());
    for (std::size_t t = 0; t < types; ++t) {
      const auto type = static_cast<cwc::comp_type_id>(t);
      EXPECT_EQ(&ov->rules_for_type(type), &root->rules_for_type(type));
    }
    for (std::uint32_t j = 0; j < root->num_rules(); ++j) {
      EXPECT_EQ(&ov->redo_host(j), &root->redo_host(j));
      EXPECT_EQ(&ov->redo_child(j), &root->redo_child(j));
      EXPECT_EQ(&ov->redo_parent(j), &root->redo_parent(j));
    }
  }
  // A tree overlay's constants live only in its tape.
  std::size_t grow = 0;
  while (root->rules()[grow].name() != "grow") ++grow;
  EXPECT_EQ(once->tape().program(grow).a, 2.0);
  EXPECT_EQ(twice->tape().program(grow).a, 0.5);
  EXPECT_EQ(root->tape().program(grow).a,
            root->rules()[grow].law().constant());
  // A flat artifact holds no static tables: its overlays only patch a copy
  // of the reaction table.
  EXPECT_TRUE(flat_once->is_overlay());
  EXPECT_TRUE(flat_twice->is_overlay());
}

// ---- report surface ---------------------------------------------------------

// Cuts are folded as the assembler releases them, so the window geometry of
// sim_config (which shapes the session's window stream) leaves a sweep
// report untouched — including slides that deliver a cut in several
// windows and sizes that leave a trailing partial window.
TEST(SweepReport, InvariantToWindowGeometry) {
  const auto m = models::make_compartment_demo({});
  const auto plan = cwcsim::sweep::plan().axis("grow", {0.5, 2.0});
  std::vector<std::string> jsons;
  for (const auto& [size, slide] :
       {std::pair<std::size_t, std::size_t>{4, 4}, {4, 1}, {1, 1}, {7, 3}}) {
    auto cfg = small_config();
    cfg.window_size = size;
    cfg.window_slide = slide;
    jsons.push_back(cwcsim::run_sweep(m, cfg, plan).to_json());
  }
  for (std::size_t i = 1; i < jsons.size(); ++i) EXPECT_EQ(jsons[0], jsons[i]);
}

TEST(SweepReport, QueryAndEvents) {
  const auto net = models::make_schlogl({});
  const auto cfg = small_config();
  const auto plan = cwcsim::sweep::plan().axis("inflow", {150.0, 250.0});

  std::vector<std::uint32_t> done_cells;
  std::uint64_t progress_events = 0;
  std::uint64_t last_total = 0;
  const auto rep =
      cwcsim::sweep_builder()
          .model(net)
          .config(cfg)
          .plan(plan)
          .on_cell_progress([&](std::uint32_t, std::uint64_t done,
                                std::uint64_t total) {
            ++progress_events;
            last_total = total;
            EXPECT_LE(done, total);
          })
          .on_cell_done([&](std::uint32_t cell) { done_cells.push_back(cell); })
          .run();

  // One progress event per finished trajectory, one done event per cell.
  EXPECT_EQ(progress_events, 2 * cfg.num_trajectories);
  EXPECT_EQ(last_total, cfg.num_trajectories);
  ASSERT_EQ(done_cells.size(), 2u);

  EXPECT_EQ(rep.observables, std::vector<std::string>{"X"});
  const auto* cell = rep.find({{"inflow", 250.0}});
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell, &rep.cells[1]);
  EXPECT_EQ(rep.find({{"inflow", 999.0}}), nullptr);

  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"observables\":[\"X\"]"), std::string::npos);
  EXPECT_NE(json.find("\"rate\":\"inflow\""), std::string::npos);
  EXPECT_NE(json.find("\"stopped\":false"), std::string::npos);
}

}  // namespace
