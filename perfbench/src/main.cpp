// perfbench_run: one timed or traced run of one workload.
//
//   perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --build-info <build tree>/build_info.json
//                 [--trace-file <path>]
//
// Prints the provenance, per-backend timings and digests, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Refuses to run (exit 2, no result) on a non-Release build, with
// CWCSIM_BATCH_KERNEL set, or when the thread budget exceeds nproc.
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cwc/batch/batch_engine.hpp"
#include "models/models.hpp"
#include "measure.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// The build record with newlines folded, for a one-line JSON embed.
std::string one_line(std::string s) {
  for (char& c : s)
    if (c == '\n') c = ' ';
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

/// CPUs this process may run on, as nproc counts them.
unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

const char* active_kernel() {
  const auto model = models::make_neurospora_cwc({});
  const cwc::batch::batch_engine probe(cwc::compiled_model::compile(model), 0, 0, 1);
  return probe.active_kernel() == cwc::batch::kernel_mode::wide ? "wide" : "scalar";
}

void print_result(const perfbench::run_result& r) {
  bool correct = r.correct && r.failed == 0 && r.attempted > 0;
  std::string metrics;
  for (const auto& [name, value, unit] : r.metrics) {
    double v = value;
    if (!std::isfinite(v)) {
      correct = false;
      v = 1e308;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), v, unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", r.attempted, r.failed, metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const util::cli cli(argc, argv);
  const std::string name = cli.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 10.0);
  const bool trace = cli.get_int("trace", 0) != 0;
  const std::string build_info_path = cli.get("build-info", "");
  try {
    // ---- guards: refuse to measure a configuration that is not the one
    // the benchmark defines.
#ifndef NDEBUG
    throw std::runtime_error("perfbench must be built with NDEBUG (Release)");
#endif
    const std::string build_info = read_file(build_info_path);
    if (build_info.find("\"build_type\": \"Release\"") == std::string::npos)
      throw std::runtime_error("build is not Release: " + one_line(build_info));
    if (std::getenv("CWCSIM_BATCH_KERNEL") != nullptr)
      throw std::runtime_error("CWCSIM_BATCH_KERNEL is set; unset it to measure");
    const unsigned cpus = nproc();
    if (perfbench::kWorkers + 1 > cpus || perfbench::kClients > cpus)
      throw std::runtime_error("thread budget (" + std::to_string(perfbench::kWorkers) +
                               " workers + 1 main thread, " +
                               std::to_string(perfbench::kClients) +
                               " clients) exceeds nproc " + std::to_string(cpus));
    if (!(seconds > 0.0)) throw std::runtime_error("--seconds must be positive");
    const perfbench::workload w = perfbench::make_workload(name, seed);

    std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
                "\"batch_kernel\": \"%s\", \"build_info\": %s}}\n",
                name.c_str(), seed, seconds, trace ? 1 : 0, cpus, active_kernel(),
                one_line(build_info).c_str());
    std::fflush(stdout);

    const perfbench::cpu_ticks before = perfbench::read_cpu_ticks();
    const perfbench::run_result r =
        trace ? perfbench::run_traced(w, seconds,
                                      cli.get("trace-file", "perfbench_trace.json"))
              : perfbench::run_timed(w, seconds);
    const perfbench::cpu_ticks after = perfbench::read_cpu_ticks();
    std::printf("{\"machine\": {\"steal_share\": %.4f}}\n",
                static_cast<double>(after.steal - before.steal) /
                    static_cast<double>(std::max<std::uint64_t>(after.total - before.total, 1)));
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
