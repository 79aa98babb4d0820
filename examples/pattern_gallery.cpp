// A tour of the ff pattern framework on its own (paper §III): pipeline,
// farm with feedback, parallel_for/map/reduce, and stencil_reduce — the
// layered toolkit the CWC simulator is built from — closing with the
// patterns composed behind the unified streaming session facade.
#include <cstdio>
#include <string>

#include "core/cwcsim.hpp"
#include "ff/ff.hpp"
#include "models/models.hpp"

namespace {

/// pipeline: source -> uppercase -> sink
void demo_pipeline() {
  std::printf("== pipeline ==\n");
  const char* words[] = {"high", "level", "parallel", "streams"};
  ff::pipeline p;
  p.add_stage(ff::make_node([i = 0, &words](auto& self, ff::token) mutable {
    if (i >= 4) return ff::outcome::end;
    self.send_out(ff::token::of(std::string(words[i++])));
    return i < 4 ? ff::outcome::more : ff::outcome::end;
  }));
  p.add_stage(ff::make_node([](auto& self, ff::token t) {
    auto s = t.template take<std::string>();
    for (auto& c : s) c = static_cast<char>(std::toupper(c));
    self.send_out(ff::token::of(std::move(s)));
    return ff::outcome::more;
  }));
  p.add_stage(ff::make_node([](auto&, ff::token t) {
    std::printf("  %s\n", t.template as<std::string>().c_str());
    return ff::outcome::more;
  }));
  p.run_and_wait();
}

/// farm: data-parallel stage with demand-driven dispatch
void demo_farm() {
  std::printf("== farm (on-demand) ==\n");
  std::atomic<long> sum{0};
  ff::pipeline p;
  p.add_stage(ff::make_node([i = 0](auto& self, ff::token) mutable {
    if (i >= 100) return ff::outcome::end;
    self.send_out(ff::token::of(i++));
    return i < 100 ? ff::outcome::more : ff::outcome::end;
  }));
  std::vector<std::unique_ptr<ff::node>> workers;
  for (int w = 0; w < 4; ++w) {
    workers.push_back(ff::make_node([&sum](auto&, ff::token t) {
      sum += t.template as<int>();
      return ff::outcome::more;
    }));
  }
  auto farm = std::make_unique<ff::farm>(std::move(workers));
  farm->remove_collector();
  p.add_stage(std::move(farm));
  p.run_and_wait();
  std::printf("  sum(0..99) computed by 4 workers = %ld\n", sum.load());
}

/// parallel_for / reduce: numerical integration of pi
void demo_parallel_for() {
  std::printf("== parallel_for / reduce ==\n");
  ff::parallel_for pf(4);
  const std::int64_t n = 1'000'000;
  const double pi = 4.0 * pf.reduce(
                              0, n, 0, 0.0,
                              [n](std::int64_t i) {
                                const double x = (i + 0.5) / static_cast<double>(n);
                                return 1.0 / (1.0 + x * x);
                              },
                              [](double a, double b) { return a + b; }) /
                    static_cast<double>(n);
  std::printf("  pi ~= %.6f\n", pi);
}

/// stencil_reduce: Jacobi iteration until residual convergence
void demo_stencil_reduce() {
  std::printf("== stencil_reduce ==\n");
  ff::parallel_for pf(4);
  std::vector<double> a(65, 0.0), b(65, 0.0);
  a.back() = b.back() = 1.0;
  auto [result, st] = ff::stencil_reduce(
      pf, std::span<double>(a), std::span<double>(b), 0.0,
      [](std::span<double> in, std::span<double> out, std::size_t i) {
        out[i] = (i == 0 || i + 1 == in.size())
                     ? in[i]
                     : 0.5 * (in[i - 1] + in[i + 1]);
      },
      [](std::span<double> out, std::size_t i) {
        return i > 0 ? std::abs(out[i] - out[i - 1]) : 0.0;
      },
      [](double x, double y) { return std::max(x, y); },
      [](double max_grad, std::uint64_t) {
        return std::abs(max_grad - 1.0 / 64.0) > 1e-6;
      });
  std::printf("  Jacobi converged after %llu sweeps (midpoint %.4f)\n",
              static_cast<unsigned long long>(st.iterations), result[32]);
}

/// the patterns composed: the CWC pipeline behind the streaming session
/// facade — windows subscribe on-line, one backend value away from a
/// cluster or a GPU (core/session.hpp)
void demo_session() {
  std::printf("== streaming session (the patterns composed) ==\n");
  const auto net = models::make_birth_death({});
  cwcsim::sim_config cfg;
  cfg.num_trajectories = 8;
  cfg.t_end = 4.0;
  cfg.sample_period = 0.5;
  cfg.quantum = 2.0;
  cfg.sim_workers = 2;
  cfg.window_size = 3;
  cfg.window_slide = 3;
  cfg.kmeans_k = 0;

  auto session = cwcsim::run_builder().model(net).config(cfg).open();
  session.on_window([](const cwcsim::window_summary& w) {
    std::printf("  window @%2llu: %zu cuts, mean(X) at start %.1f\n",
                static_cast<unsigned long long>(w.first_sample),
                w.cuts.size(), w.cuts.front().moments[0].mean());
  });
  const auto report = session.wait();
  std::printf("  %s backend, %zu windows, %zu trajectories done\n",
              report.backend.c_str(), report.result.windows.size(),
              report.result.completions.size());
}

}  // namespace

int main() {
  demo_pipeline();
  demo_farm();
  demo_parallel_for();
  demo_stencil_reduce();
  demo_session();
  return 0;
}
