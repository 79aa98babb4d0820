// Measurement helpers of the repository benchmark: sample statistics,
// output digests, process memory, and the in-memory span recorder of the
// traced run. Everything here observes the program from outside; nothing
// reaches into cwcsim internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "sweep/report.hpp"

namespace perfbench {

using clock = std::chrono::steady_clock;

inline double seconds_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(clock::time_point t0) {
  return seconds_between(t0, clock::now());
}

// ------------------------------------------------------------- statistics

/// Nearest-rank percentile (p in (0, 100]) of `xs`; +inf entries (failed
/// requests) sort last and propagate. Precondition: xs non-empty.
double percentile(std::vector<double> xs, double p);

/// Median by linear interpolation of the two middle order statistics.
double median(std::vector<double> xs);

/// A timing reported the way the benchmark prints every timing: the
/// median, the highest standard percentile (90, 99, 99.9) that still has
/// at least ten samples beyond it (tail_p == 0 when none does), and n.
struct timing {
  std::size_t n = 0;
  double median = 0.0;
  double tail_p = 0.0;
  double tail = 0.0;
};
timing summarize(const std::vector<double>& xs);

/// One human-readable line: "<name>: median 1.23 s, p90 1.50 s (n=40)".
std::string describe(const std::string& name, const timing& t,
                     const char* unit);

// ---------------------------------------------------------------- digests

/// FNV-1a over the exact bits of every value fed in.
class digest {
 public:
  void add(std::uint64_t v) noexcept;
  void add(double v) noexcept;
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One summarized sample point: its index, time, per-observable moments
/// and the k-means split — the fields both the window stream and a sweep
/// report carry.
void add_point(digest& d, std::uint64_t sample_index, double time,
               const std::vector<stats::welford>& moments,
               const stats::kmeans_result& clusters);

/// Digest of an ordered window stream (adds per-observable medians).
std::uint64_t window_digest(const std::vector<cwcsim::window_summary>& ws);

/// Digest of a sweep report's per-cell point reductions, in cell order.
std::uint64_t sweep_digest(const cwcsim::sweep::report& rep);

/// Incremental per-cell form of sweep_digest for the replay: feed each
/// cell's cut summaries in sample order, then close the cell.
class sweep_digest_builder {
 public:
  void add_cut(const stats::cut_summary& c);
  void end_cell();
  std::uint64_t value() const noexcept { return d_.value(); }

 private:
  digest d_;
  digest cell_;
  std::uint64_t cell_index_ = 0;
  std::uint64_t points_ = 0;
};

// ----------------------------------------------------------------- memory

/// Peak resident set of this process in MB (VmHWM of /proc/self/status).
double peak_rss_mb();

/// Restart the VmHWM peak from the current resident set, so the next
/// peak_rss_mb() covers only what follows.
void restart_peak_rss();

/// Return freed heap to the OS first (malloc_trim), then restart the peak.
void reset_peak_rss();

/// Machine-wide CPU time of /proc/stat (all CPUs, clock ticks): the steal
/// share over a run shows how much a hypervisor took from the machine.
struct cpu_ticks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
cpu_ticks read_cpu_ticks();

// ------------------------------------------------------------------ spans

/// In-memory span recorder: each span has a name, start, end, parent span
/// and request id (trajectory, session or cell). Thread-safe, so pipeline
/// callbacks can record spans. Written once, as a Chrome trace_event file.
class tracer {
 public:
  static constexpr std::int64_t kNoParent = -1;

  tracer();

  std::int64_t begin(const char* name, std::int64_t parent,
                     std::uint64_t request);
  void end(std::int64_t id);

  /// Sum of span durations per name (seconds).
  std::map<std::string, double> total_by_name() const;
  /// Sum of self times per name: a span's duration minus the part of its
  /// interval covered by its children (seconds).
  std::map<std::string, double> self_by_name() const;
  std::size_t size() const;

  /// {"traceEvents": [{"name", "ph": "X", "ts", "dur", "pid", "tid",
  ///   "args": {"id", "parent", "request"}}], "displayTimeUnit": "ms"}
  void write_chrome(const std::string& path) const;

 private:
  struct span {
    const char* name;
    clock::time_point start;
    clock::time_point end;
    std::int64_t parent;
    std::uint64_t request;
    std::uint32_t tid;
  };
  mutable std::mutex mu_;
  std::vector<span> spans_;
  std::map<std::size_t, std::uint32_t> thread_ids_;
  clock::time_point origin_;
};

/// RAII span; records nothing when the tracer is null (tracing off).
class scoped_span {
 public:
  scoped_span(tracer* t, const char* name, std::int64_t parent, std::uint64_t request)
      : t_(t), id_(t != nullptr ? t->begin(name, parent, request) : tracer::kNoParent) {}
  ~scoped_span() {
    if (t_ != nullptr) t_->end(id_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  std::int64_t id() const noexcept { return id_; }

 private:
  tracer* t_;
  std::int64_t id_;
};

}  // namespace perfbench
