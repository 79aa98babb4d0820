// Self-tests of the benchmark: the percentile helper, the digests, the
// replay against the sessions on a tiny instance of every workload, and the
// span file. Run through `python3 perfbench/run.py --selftest`, which also
// validates the span file's schema with a JSON parser.
//
//   perfbench_selftest <span-file-path>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "measure.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

void test_percentiles() {
  using perfbench::percentile;
  const std::vector<double> xs = {5, 1, 4, 2, 3};
  check(percentile(xs, 50) == 3, "p50 of 1..5 is 3");
  check(percentile(xs, 100) == 5, "p100 is the maximum");
  check(percentile(xs, 1) == 1, "p1 is the minimum");
  check(perfbench::median({1, 2, 3, 4}) == 2.5, "even median interpolates");

  const double inf = std::numeric_limits<double>::infinity();
  check(std::isinf(percentile({1, 2, inf}, 90)), "failed requests sort last");

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const auto t = perfbench::summarize(hundred);
  check(t.n == 100 && t.median == 50.5, "summary median and n");
  check(t.tail_p == 90.0 && t.tail == 90.0, "p90 needs ten samples beyond it");
  check(perfbench::summarize({1, 2, 3}).tail_p == 0.0, "no tail below 10 beyond");
  std::vector<double> thousand(1000, 1.0);
  check(perfbench::summarize(thousand).tail_p == 99.0, "p99 at n=1000");
}

void test_digest() {
  perfbench::digest a, b;
  a.add(1.0);
  b.add(1.0);
  check(a.value() == b.value(), "digest is deterministic");
  b.add(std::uint64_t{0});
  check(a.value() != b.value(), "digest sees every value");
  perfbench::digest z, nz;
  z.add(0.0);
  nz.add(-0.0);
  check(z.value() != nz.value(), "digest hashes exact bits");

  const auto w = perfbench::make_workload("neurospora_ensemble", 7);
  auto cfg = w.ensemble.cfg;
  cfg.num_trajectories = 4;
  cfg.t_end = 10.0;
  const auto model = perfbench::build_model(w.ensemble.kind);
  const auto d1 = perfbench::reference_digest(model, cfg);
  check(d1 == perfbench::reference_digest(model, cfg), "same seed, same digest");
  cfg.seed += 1;
  check(d1 != perfbench::reference_digest(model, cfg), "another seed, another digest");
  check(perfbench::make_workload("cdemo_dense", 7).ensemble.cfg.seed ==
            perfbench::make_workload("cdemo_dense", 7).ensemble.cfg.seed,
        "inputs are a function of the seed");
}

/// Shrink a workload to a sub-second instance of the same shape.
perfbench::workload tiny(const std::string& name) {
  auto w = perfbench::make_workload(name, 3);
  const auto shrink = [](cwcsim::sim_config& cfg, std::uint64_t n) {
    cfg.num_trajectories = n;
    cfg.t_end = 40.0 * cfg.sample_period;
  };
  shrink(w.ensemble.cfg, 40);  // more than one batch of kBatchWidth lanes
  shrink(w.sweep.cfg, 4);
  w.sweep.inflow = {180.0, 220.0};
  w.sweep.outflow = {3.5};
  for (auto& t : w.tenants) shrink(t.cfg, 3);
  return w;
}

void test_runs(const std::string& span_file) {
  for (const auto& name : perfbench::workload_names()) {
    const auto w = tiny(name);
    const auto timed = perfbench::run_timed(w, 0.2);
    check(timed.correct && timed.failed == 0 && timed.attempted > 0,
          name + ": timed sessions match the replay");
    check(timed.metrics.size() == 5, name + ": five end-to-end metrics");
    for (const auto& [metric, value, unit] : timed.metrics)
      check(std::isfinite(value) && value > 0, name + ": " + metric + " > 0");

    const auto traced = perfbench::run_traced(w, 0.4, span_file);
    check(traced.correct && traced.failed == 0,
          name + ": traced sessions match the replay");
    const auto again = perfbench::run_traced(w, 0.4, span_file);
    for (std::size_t i = 0; i < traced.metrics.size(); ++i) {
      const auto& [metric, value, unit] = traced.metrics[i];
      for (const char* exact : {"cwc.ssa_steps", "cwc.samples", "cwc.quanta",
                                "stats.cuts", "simt.kernels", "sweep.cells"})
        if (metric == exact)
          check(value == std::get<1>(again.metrics[i]),
                name + ": " + metric + " repeats exactly");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <span-file-path>\n");
    return 2;
  }
  test_percentiles();
  test_digest();
  test_runs(argv[1]);
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
