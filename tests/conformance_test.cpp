// Conformance of the in-process backends with the serial oracle
// (serial_oracle.hpp): for every model x backend x sim_workers, a run's
// windows must equal the oracle's bit for bit (window_equality.hpp), and
// its completions — both the report's and the stream's — must equal the
// oracle's as a set of (trajectory, quanta, steps). Completion order is
// not part of the contract.
//
// Models: Neurospora (tree, batchable) at 12 trajectories and at 40 (two
// run-server lane blocks), the stalling compartment_demo (vesicle churn,
// lanes stall at their own times), Schlögl (flat), a tree model with a
// custom rate law (not batchable) and birth–death (flat) with k-means off.
// Backends: multicore{0, 4, 32} and gpu{k40} at batch widths 0 and 32, each
// on 1 and 3 simulation workers, `service` over a run_server with 1 and 3
// pool workers, and `distributed` clusters of 1×1, 3×1 and 2×2
// hosts×workers (no kills; they ignore sim_workers, so one row per model).
// Every row also checks its report's extras: `network` on the distributed
// and service rows (with traffic), `device` on the gpu rows, neither on
// multicore.
#include <gtest/gtest.h>

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

struct model_case {
  std::variant<cwc::model, cwc::reaction_network> model;
  cwcsim::sim_config cfg;
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
      return {custom_law_model(), base_config(12, 10.0, 0.5, 2.0)};
    case model_kind::birth_death: {
      auto cfg = base_config(8, 5.0, 0.5, 2.0);
      cfg.kmeans_k = 0;
      return {models::make_birth_death({}), cfg};
    }
  }
  return {};
}

/// The model, its configuration and its oracle result, built once per
/// model and shared by every backend row.
struct fixture {
  model_case c;
  oracle::serial_result want;
};

const fixture& fixture_of(model_kind k) {
  static std::mutex mu;
  static std::map<model_kind, fixture> cache;
  const std::lock_guard<std::mutex> lk(mu);
  auto it = cache.find(k);
  if (it == cache.end()) {
    fixture f{make_case(k), {}};
    const auto cm = std::visit(
        [](const auto& m) { return cwc::compiled_model::compile(m); }, f.c.model);
    f.want = oracle::serial_run(cm, f.c.cfg);
    it = cache.emplace(k, std::move(f)).first;
  }
  return it->second;
}

struct named_backend {
  const char* name;
  cwcsim::backend backend;
};

/// A cluster over a modeled link, so frames take time and bytes to cross.
cwcsim::distributed cluster(unsigned hosts, unsigned workers) {
  cwcsim::distributed d{hosts, workers};
  d.network.latency_s = 1e-4;
  d.network.bytes_per_s = 50e6;
  return d;
}

std::vector<named_backend> backends() {
  const auto k40 = simt::devices::tesla_k40();
  return {{"multicore0", cwcsim::multicore{0}},
          {"multicore4", cwcsim::multicore{4}},
          {"multicore32", cwcsim::multicore{32}},
          {"gpu0", cwcsim::gpu{k40, 0}},
          {"gpu32", cwcsim::gpu{k40, 32}},
          // Its server is built per row; see MatchesSerialOracle.
          {"service", cwcsim::service{}},
          {"dist1x1", cluster(1, 1)},
          {"dist3x1", cluster(3, 1)},
          {"dist2x2", cluster(2, 2)}};
}

/// Rows [0, kInProcess) run on sim_workers threads; the rest are clusters.
constexpr std::size_t kInProcess = 6;

using row = std::tuple<model_kind, std::size_t, unsigned>;

class conformance : public ::testing::TestWithParam<row> {};

TEST_P(conformance, MatchesSerialOracle) {
  const auto [kind, b, workers] = GetParam();
  const fixture& f = fixture_of(kind);
  ASSERT_FALSE(f.want.windows.empty());
  ASSERT_EQ(f.want.completions.size(), f.c.cfg.num_trajectories);

  auto cfg = f.c.cfg;
  cfg.sim_workers = workers;
  cwcsim::backend backend = backends()[b].backend;
  std::optional<svc::run_server> server;
  if (auto* s = std::get_if<cwcsim::service>(&backend)) {
    svc::svc_config sc;
    sc.pool_workers = workers;
    s->server = &server.emplace(sc);
  }
  std::vector<cwcsim::task_done> streamed;
  const cwcsim::run_report rep = std::visit(
      [&](const auto& m) {
        auto s = cwcsim::run_builder()
                     .model(m)
                     .config(cfg)
                     .backend(backend)
                     .open();
        s.on_trajectory_done(
            [&](const cwcsim::task_done& d) { streamed.push_back(d); });
        return s.wait();
      },
      f.c.model);

  EXPECT_FALSE(rep.stopped);
  expect_bit_identical(rep.result.windows, f.want.windows);
  EXPECT_EQ(oracle::completion_set(rep.result.completions), f.want.completions);
  EXPECT_EQ(oracle::completion_set(streamed), f.want.completions);

  static const char* const drivers[] = {"multicore", "distributed", "gpu",
                                        "service"};
  EXPECT_EQ(rep.backend, drivers[backend.index()]);
  const bool networked = std::holds_alternative<cwcsim::distributed>(backend) ||
                         std::holds_alternative<cwcsim::service>(backend);
  ASSERT_EQ(rep.network.has_value(), networked);
  if (networked) {
    EXPECT_GT(rep.network->messages, 0u);
    EXPECT_GT(rep.network->bytes, 0.0);
  }
  EXPECT_EQ(rep.device.has_value(), std::holds_alternative<cwcsim::gpu>(backend));
}

std::string row_name(const ::testing::TestParamInfo<row>& info) {
  static const char* const models[] = {"neurospora", "neurospora_wide",
                                       "stalling_demo", "schlogl",
                                       "custom_law", "birth_death"};
  const auto [kind, b, workers] = info.param;
  std::string name =
      std::string(models[static_cast<int>(kind)]) + "_" + backends()[b].name;
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
    ::testing::Combine(kModels,
                       ::testing::Range<std::size_t>(kInProcess,
                                                     backends().size()),
                       ::testing::Values(1u)),
    row_name);

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
