// Conformance of every backend with the serial oracle (serial_oracle.hpp):
// the one cross-backend oracle of the suites. (Scenario tests — concurrent
// tenants, faults, sweep overlays — still compare with a multicore{} run,
// only to show their scenario corrupted nothing.) For every model x row, a
// run's windows must equal the oracle's bit for bit (window_equality.hpp),
// and its completions — both the report's and the stream's — must equal
// the oracle's as a set of (trajectory, quanta, steps). Completion order is
// not part of the contract.
//
// Models: Neurospora (tree, batchable) at 12 trajectories and at 40 (two
// run-server lane blocks), the stalling compartment_demo (vesicle churn,
// lanes stall at their own times), Schlögl (flat), a tree model with a
// custom rate law (not batchable, cannot cross the wire) and birth–death
// (flat) with k-means off.
// Rows:
//   Matrix   multicore{0, 4, 32}, gpu{laptop, 0}, gpu{k40, 32} and
//            `service` over a run_server, each on 1 and 3 simulation
//            workers (the server's pool workers on the service rows);
//   Cluster  `distributed` clusters of 1×1, 3×1 and 2×2 hosts×workers
//            (they ignore sim_workers, so one row per model);
//   Kill     the 3×1 cluster with host 1 dying halfway through its share
//            of the ensemble's simulated time, on Neurospora, the stalling
//            demo and the custom law;
//   Sweep    sweep_builder over one cell with no overrides on
//            multicore{0, 4, 32} × {1, 3} workers: each point's sample
//            index, time, moments and clusters, and the cell's trajectory
//            and step counts;
//   Oracle   the oracle itself: every cut and every trajectory once, and
//            the same windows at the configured quantum and at 4× it.
// Every row that runs 3 simulation workers (the w3 rows and the 3×1
// clusters) runs at the 4× coarser quantum with 3 statistical engines and
// meets the oracle at that quantum.
//
// Every run row also checks what it reports: the on_window stream equals
// the report's windows and ends before wait() returns; sim_workers and
// stat_engines are what the backend ran; `network` on the distributed and
// service rows (traffic, and model_bytes > 0 exactly when the model crosses
// the wire), with per-host quanta summing to the completions' on clusters
// and the server's session, quantum and cache counters on service;
// `device` on the gpu rows (one kernel per quantum of the longest
// trajectory); neither on multicore.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/cwcsim.hpp"
#include "cwc/batch/batch_engine.hpp"
#include "models/models.hpp"
#include "serial_oracle.hpp"
#include "simt/simt.hpp"
#include "svc/svc.hpp"
#include "sweep/sweep.hpp"
#include "window_equality.hpp"

namespace {

using testing_windows::expect_bit_identical;

enum class model_kind {
  neurospora,
  neurospora_wide,
  stalling_demo,
  schlogl,
  custom_law,
  birth_death
};

const char* const kModelNames[] = {"neurospora", "neurospora_wide",
                                   "stalling_demo", "schlogl",
                                   "custom_law", "birth_death"};

struct model_case {
  std::variant<cwc::model, cwc::reaction_network> model;
  cwcsim::sim_config cfg;
  bool crosses_wire = true;  ///< false: custom rate laws stay in-process
};

cwcsim::sim_config base_config(std::uint64_t n, double t_end, double tau,
                               double quantum) {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = n;
  cfg.t_end = t_end;
  cfg.sample_period = tau;
  cfg.quantum = quantum;
  cfg.stat_engines = 2;
  // Overlapping windows with a trailing partial one on every model.
  cfg.window_size = 6;
  cfg.window_slide = 4;
  cfg.kmeans_k = 2;
  cfg.seed = 0xC0DE5;
  return cfg;
}

/// The configuration of a row that runs 3 simulation workers: a 4× coarser
/// quantum and 3 statistical engines.
cwcsim::sim_config coarse(cwcsim::sim_config cfg) {
  cfg.quantum *= 4.0;
  cfg.stat_engines = 3;
  return cfg;
}

/// A birth-death tree model whose birth rate is a custom law (self-
/// repression), so no batch engine accepts it.
cwc::model custom_law_model() {
  cwc::model m;
  m.set_initial(cwc::parse_term(m, "10*A"));
  const auto a = m.species().id("A");
  cwc::rule birth("birth", cwc::top_compartment,
                  cwc::rate_law::custom([a](const cwc::rate_ctx& ctx) {
                    return 40.0 / (1.0 + static_cast<double>(ctx.local.count(a)) / 20.0);
                  }));
  birth.produce(a);
  m.add_rule(std::move(birth));
  cwc::rule death("death", cwc::top_compartment, cwc::rate_law::mass_action(0.5));
  death.consume(a);
  m.add_rule(std::move(death));
  m.add_observable("A", a);
  return m;
}

model_case make_case(model_kind k) {
  switch (k) {
    case model_kind::neurospora:
      return {models::make_neurospora_cwc({}), base_config(12, 12.0, 0.5, 2.5)};
    case model_kind::neurospora_wide:
      return {models::make_neurospora_cwc({}), base_config(40, 12.0, 0.5, 2.5)};
    case model_kind::stalling_demo: {
      // Vesicles form fast enough that most lanes stall before t_end.
      models::compartment_demo_params p;
      p.k_form = 0.2;
      return {models::make_compartment_demo(p), base_config(16, 20.0, 0.5, 1.5)};
    }
    case model_kind::schlogl:
      return {models::make_schlogl({}), base_config(16, 4.0, 0.25, 1.0)};
    case model_kind::custom_law:
      return {custom_law_model(), base_config(12, 10.0, 0.5, 2.0), false};
    case model_kind::birth_death: {
      auto cfg = base_config(8, 5.0, 0.5, 2.0);
      cfg.kmeans_k = 0;
      return {models::make_birth_death({}), cfg};
    }
  }
  return {};
}

/// The model, its configuration and its oracle results at the configured
/// quantum (`fine`) and at coarse()'s (`coarser`), built once per model
/// and shared by every row.
struct fixture {
  model_case c;
  std::size_t observables = 0;
  oracle::serial_result fine;
  oracle::serial_result coarser;
};

const fixture& fixture_of(model_kind k) {
  static std::mutex mu;
  static std::map<model_kind, fixture> cache;
  const std::lock_guard<std::mutex> lk(mu);
  auto it = cache.find(k);
  if (it == cache.end()) {
    fixture f{make_case(k), 0, {}, {}};
    const auto cm = std::visit(
        [](const auto& m) { return cwc::compiled_model::compile(m); }, f.c.model);
    f.observables = cm->num_observables();
    f.fine = oracle::serial_run(cm, f.c.cfg);
    f.coarser = oracle::serial_run(cm, coarse(f.c.cfg));
    it = cache.emplace(k, std::move(f)).first;
  }
  return it->second;
}

/// Each of the oracle's cuts once, in sample order: overlapping windows
/// repeat the cuts they share.
std::vector<const stats::cut_summary*> distinct_cuts(
    const oracle::serial_result& r) {
  std::vector<const stats::cut_summary*> out;
  for (const auto& w : r.windows)
    for (const auto& c : w.cuts)
      if (out.empty() || c.sample_index > out.back()->sample_index)
        out.push_back(&c);
  return out;
}

struct named_backend {
  const char* name;
  cwcsim::backend backend;
  bool kills_host1 = false;
};

/// A cluster over a modeled link, so frames take time and bytes to cross.
cwcsim::distributed cluster(unsigned hosts, unsigned workers) {
  cwcsim::distributed d{hosts, workers};
  d.network.latency_s = 1e-4;
  d.network.bytes_per_s = 50e6;
  return d;
}

std::vector<named_backend> backends() {
  return {{"multicore0", cwcsim::multicore{0}},
          {"multicore4", cwcsim::multicore{4}},
          {"multicore32", cwcsim::multicore{32}},
          {"gpu0", cwcsim::gpu{simt::devices::laptop_gpu(), 0}},
          {"gpu32", cwcsim::gpu{simt::devices::tesla_k40(), 32}},
          // Its server is built per row; see MatchesSerialOracle.
          {"service", cwcsim::service{}},
          {"dist1x1", cluster(1, 1)},
          {"dist3x1", cluster(3, 1)},
          {"dist2x2", cluster(2, 2)},
          {"dist3x1_kill", cluster(3, 1), true}};
}

/// Rows [0, kInProcess) run on sim_workers threads; the rest are clusters,
/// kKill the one that loses a host.
constexpr std::size_t kInProcess = 6;
constexpr std::size_t kKill = 9;

using row = std::tuple<model_kind, std::size_t, unsigned>;

class conformance : public ::testing::TestWithParam<row> {};

TEST_P(conformance, MatchesSerialOracle) {
  const auto [kind, b, workers] = GetParam();
  const fixture& f = fixture_of(kind);
  const named_backend row_backend = backends()[b];
  cwcsim::backend backend = row_backend.backend;
  auto* const dist = std::get_if<cwcsim::distributed>(&backend);
  auto* const service = std::get_if<cwcsim::service>(&backend);
  const bool gpu = std::holds_alternative<cwcsim::gpu>(backend);

  // The simulation workers the backend runs: a cluster's hosts × workers,
  // else sim_workers (a service row's server pool).
  const unsigned ran =
      dist != nullptr ? dist->num_hosts * dist->workers_per_host : workers;
  auto cfg = ran == 3 ? coarse(f.c.cfg) : f.c.cfg;
  const oracle::serial_result& want = ran == 3 ? f.coarser : f.fine;
  cfg.sim_workers = workers;
  if (row_backend.kills_host1) {
    // Lane blocks are homed evenly, so host 1's share of the lane-time is
    // 1/num_hosts of the ensemble's; it dies halfway through it.
    const double share = cfg.t_end * static_cast<double>(cfg.num_trajectories) /
                         dist->num_hosts;
    dist->kills = {{1, 0.5 * share}};
  }
  std::optional<svc::run_server> server;
  if (service != nullptr) {
    svc::svc_config sc;
    sc.pool_workers = workers;
    service->server = &server.emplace(sc);
  }

  std::vector<cwcsim::window_summary> streamed;
  std::vector<cwcsim::task_done> done;
  std::atomic<bool> waited{false};
  auto s = std::visit(
      [&](const auto& m) {
        return cwcsim::run_builder().model(m).config(cfg).backend(backend).open();
      },
      f.c.model);
  s.on_window([&](const cwcsim::window_summary& w) {
    EXPECT_FALSE(waited.load()) << "window after wait() returned";
    streamed.push_back(w);
  });
  s.on_trajectory_done([&](const cwcsim::task_done& d) { done.push_back(d); });
  const cwcsim::run_report rep = s.wait();
  waited.store(true);

  EXPECT_FALSE(rep.stopped);
  expect_bit_identical(rep.result.windows, want.windows);
  expect_bit_identical(streamed, rep.result.windows);
  EXPECT_EQ(oracle::completion_set(rep.result.completions), want.completions);
  EXPECT_EQ(oracle::completion_set(done), want.completions);

  static const char* const drivers[] = {"multicore", "distributed", "gpu",
                                        "service"};
  EXPECT_EQ(rep.backend, drivers[backend.index()]);
  EXPECT_EQ(rep.result.sim_workers, ran);
  // The server runs one analysis worker per session.
  EXPECT_EQ(rep.result.stat_engines, service != nullptr ? 1u : cfg.stat_engines);

  std::uint64_t quanta = 0;
  std::uint64_t longest = 0;
  for (const auto& [id, q, steps] : want.completions) {
    quanta += q;
    longest = std::max(longest, q);
  }

  ASSERT_EQ(rep.network.has_value(), dist != nullptr || service != nullptr);
  if (rep.network.has_value()) {
    EXPECT_GT(rep.network->messages, 0u);
    EXPECT_GT(rep.network->bytes, 0.0);
    EXPECT_EQ(rep.network->model_bytes > 0.0, f.c.crosses_wire);
  }
  if (dist != nullptr) {
    // Accepted (trajectory, quantum) pairs, attributed to exactly one host
    // each, even when a host died holding leases.
    ASSERT_EQ(rep.network->host_quanta.size(), dist->num_hosts);
    std::uint64_t accepted = 0;
    for (const auto q : rep.network->host_quanta) accepted += q;
    EXPECT_EQ(accepted, quanta);
  }
  if (service != nullptr) {
    const auto st = server->stats();
    EXPECT_EQ(st.sessions_opened, 1u);
    EXPECT_EQ(st.sessions_completed, 1u);
    EXPECT_EQ(st.quanta_executed, st.quanta_accepted + st.quanta_discarded);
    EXPECT_EQ(st.quanta_discarded, 0u);
    // The quanta counters and the session's grants count trajectory quanta,
    // however many trajectories one lease advances.
    EXPECT_EQ(st.quanta_accepted, quanta);
    EXPECT_EQ(rep.network->grants, quanta);
    EXPECT_EQ(st.cache.compiles, f.c.crosses_wire ? 1u : 0u);
  }
  ASSERT_EQ(rep.device.has_value(), gpu);
  if (gpu) {
    // One kernel per round, and rounds run until the longest lane retires.
    EXPECT_EQ(rep.device->kernels, longest);
    EXPECT_GT(rep.device->device_seconds, 0.0);
    EXPECT_GE(rep.device->divergence_factor, 1.0);
  }
}

std::string row_name(const ::testing::TestParamInfo<row>& info) {
  const auto [kind, b, workers] = info.param;
  std::string name =
      std::string(kModelNames[static_cast<int>(kind)]) + "_" + backends()[b].name;
  if (b < kInProcess) name += "_w" + std::to_string(workers);
  return name;
}

const auto kModels = ::testing::Values(
    model_kind::neurospora, model_kind::neurospora_wide,
    model_kind::stalling_demo, model_kind::schlogl, model_kind::custom_law,
    model_kind::birth_death);

INSTANTIATE_TEST_SUITE_P(
    Matrix, conformance,
    ::testing::Combine(kModels, ::testing::Range<std::size_t>(0, kInProcess),
                       ::testing::Values(1u, 3u)),
    row_name);

INSTANTIATE_TEST_SUITE_P(
    Cluster, conformance,
    ::testing::Combine(kModels, ::testing::Range<std::size_t>(kInProcess, kKill),
                       ::testing::Values(1u)),
    row_name);

INSTANTIATE_TEST_SUITE_P(
    Kill, conformance,
    ::testing::Combine(::testing::Values(model_kind::neurospora,
                                         model_kind::stalling_demo,
                                         model_kind::custom_law),
                       ::testing::Values(kKill), ::testing::Values(1u)),
    row_name);

/// (model, batch width, sim_workers) of a one-cell sweep.
using sweep_row = std::tuple<model_kind, std::size_t, unsigned>;

class sweep_conformance : public ::testing::TestWithParam<sweep_row> {};

// A sweep cell with no overrides is the plain ensemble: its per-point
// reductions fold the same cuts the oracle's windows summarise.
TEST_P(sweep_conformance, MatchesSerialOracle) {
  const auto [kind, width, workers] = GetParam();
  const fixture& f = fixture_of(kind);
  auto cfg = workers == 3 ? coarse(f.c.cfg) : f.c.cfg;
  const oracle::serial_result& want = workers == 3 ? f.coarser : f.fine;
  cfg.sim_workers = workers;

  const cwcsim::sweep::report rep = std::visit(
      [&](const auto& m) {
        return cwcsim::sweep_builder()
            .model(m)
            .config(cfg)
            .backend(cwcsim::multicore{width})
            .plan(cwcsim::sweep::plan().add_cell({}))
            .run();
      },
      f.c.model);

  EXPECT_FALSE(rep.stopped);
  ASSERT_EQ(rep.cells.size(), 1u);
  const auto& cell = rep.cells.front();
  const auto cuts = distinct_cuts(want);
  ASSERT_EQ(cell.points.size(), cuts.size());
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "point " << i);
    const auto& p = cell.points[i];
    const auto& c = *cuts[i];
    ASSERT_EQ(p.sample_index, c.sample_index);
    ASSERT_EQ(p.time, c.time);
    ASSERT_EQ(p.observables.size(), c.moments.size());
    for (std::size_t d = 0; d < c.moments.size(); ++d)
      ASSERT_NO_FATAL_FAILURE(
          testing_windows::expect_same_moments(p.observables[d].moments,
                                               c.moments[d]));
    ASSERT_NO_FATAL_FAILURE(
        testing_windows::expect_same_clusters(p.clusters, c.clusters));
  }
  std::uint64_t steps = 0;
  for (const auto& [id, q, s] : want.completions) steps += s;
  EXPECT_EQ(cell.trajectories, cfg.num_trajectories);
  EXPECT_EQ(cell.steps, steps);
}

std::string sweep_row_name(const ::testing::TestParamInfo<sweep_row>& info) {
  const auto [kind, width, workers] = info.param;
  return std::string(kModelNames[static_cast<int>(kind)]) + "_sweep" +
         std::to_string(width) + "_w" + std::to_string(workers);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, sweep_conformance,
    ::testing::Combine(kModels, ::testing::Values<std::size_t>(0, 4, 32),
                       ::testing::Values(1u, 3u)),
    sweep_row_name);

class oracle_rows : public ::testing::TestWithParam<model_kind> {};

// The oracle the rows meet: every trajectory completes once, every cut
// holds every trajectory, and the quantum changes only how many quanta a
// trajectory takes — never its steps or the windows.
TEST_P(oracle_rows, EveryCutAndTrajectoryOnceAtBothQuanta) {
  const fixture& f = fixture_of(GetParam());
  const auto& cfg = f.c.cfg;
  ASSERT_EQ(f.fine.completions.size(), cfg.num_trajectories);
  ASSERT_EQ(f.coarser.completions.size(), cfg.num_trajectories);
  std::uint64_t fine_longest = 0;
  std::uint64_t coarse_longest = 0;
  for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i) {
    SCOPED_TRACE(::testing::Message() << "trajectory " << i);
    const auto [id, quanta, steps] = f.fine.completions[i];
    const auto [coarse_id, coarse_quanta, coarse_steps] = f.coarser.completions[i];
    EXPECT_EQ(id, i);
    EXPECT_EQ(coarse_id, i);
    EXPECT_GT(quanta, 0u);
    EXPECT_GT(steps, 0u);
    EXPECT_LE(coarse_quanta, quanta);
    EXPECT_EQ(coarse_steps, steps);
    fine_longest = std::max(fine_longest, quanta);
    coarse_longest = std::max(coarse_longest, coarse_quanta);
  }
  EXPECT_LT(coarse_longest, fine_longest);

  const auto cuts = distinct_cuts(f.fine);
  ASSERT_EQ(cuts.size(), cfg.num_samples());
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "cut " << k);
    EXPECT_EQ(cuts[k]->sample_index, k);
    ASSERT_EQ(cuts[k]->moments.size(), f.observables);
    for (const auto& m : cuts[k]->moments)
      EXPECT_EQ(m.count(), cfg.num_trajectories);
  }
  expect_bit_identical(f.coarser.windows, f.fine.windows);
}

INSTANTIATE_TEST_SUITE_P(
    Oracle, oracle_rows, kModels,
    [](const ::testing::TestParamInfo<model_kind>& info) {
      return std::string(kModelNames[static_cast<int>(info.param)]);
    });

// The matrix's models cover both lane kinds: a batch width > 1 runs SoA
// lanes on the batchable tree models and falls back to scalar lanes on the
// flat and custom-law ones.
TEST(ConformanceModels, CoverBatchableAndUnbatchable) {
  const auto compiled = [](model_kind k) {
    return std::visit([](const auto& m) { return cwc::compiled_model::compile(m); },
                      fixture_of(k).c.model);
  };
  EXPECT_TRUE(cwc::batch::batch_engine::supports(*compiled(model_kind::neurospora)));
  EXPECT_TRUE(
      cwc::batch::batch_engine::supports(*compiled(model_kind::stalling_demo)));
  EXPECT_FALSE(cwc::batch::batch_engine::supports(*compiled(model_kind::schlogl)));
  EXPECT_FALSE(
      cwc::batch::batch_engine::supports(*compiled(model_kind::custom_law)));
}

}  // namespace
