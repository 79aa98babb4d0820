#include "measure.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/check.hpp"

namespace perfbench {

// ------------------------------------------------------------- statistics

namespace {

/// 1-based nearest rank of percentile p among n samples; the epsilon keeps
/// p * n / 100 from rounding up past an exact rank (90 * 100 / 100).
std::size_t percentile_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> xs, double p) {
  util::expects(!xs.empty(), "percentile of an empty sample");
  util::expects(p > 0.0 && p <= 100.0, "percentile outside (0, 100]");
  std::sort(xs.begin(), xs.end());
  return xs[percentile_rank(xs.size(), p) - 1];
}

double median(std::vector<double> xs) {
  util::expects(!xs.empty(), "median of an empty sample");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n % 2 == 1) return xs[n / 2];
  const double a = xs[n / 2 - 1];
  const double b = xs[n / 2];
  if (std::isinf(a) || std::isinf(b)) return std::isinf(a) ? a : b;
  return 0.5 * (a + b);
}

timing summarize(const std::vector<double>& xs) {
  timing t;
  t.n = xs.size();
  if (xs.empty()) return t;
  t.median = median(xs);
  for (const double p : {99.9, 99.0, 90.0}) {
    if (xs.size() - percentile_rank(xs.size(), p) >= 10) {
      t.tail_p = p;
      t.tail = percentile(xs, p);
      break;
    }
  }
  return t;
}

std::string describe(const std::string& name, const timing& t,
                     const char* unit) {
  char buf[256];
  if (t.tail_p > 0.0)
    std::snprintf(buf, sizeof buf, "%s: median %.6g %s, p%g %.6g %s (n=%zu)",
                  name.c_str(), t.median, unit, t.tail_p, t.tail, unit, t.n);
  else
    std::snprintf(buf, sizeof buf,
                  "%s: median %.6g %s (n=%zu, too few for a tail percentile)",
                  name.c_str(), t.median, unit, t.n);
  return buf;
}

// ---------------------------------------------------------------- digests

void digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 0x100000001b3ULL;
  }
}

void digest::add(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void add_point(digest& d, std::uint64_t sample_index, double time,
               const std::vector<stats::welford>& moments,
               const stats::kmeans_result& clusters) {
  d.add(sample_index);
  d.add(time);
  d.add(static_cast<std::uint64_t>(moments.size()));
  for (const auto& m : moments) {
    const auto s = m.snapshot();
    d.add(s.n);
    d.add(s.mean);
    d.add(s.m2);
    d.add(s.min);
    d.add(s.max);
  }
  d.add(static_cast<std::uint64_t>(clusters.centroids.size()));
  for (const auto& c : clusters.centroids)
    for (const double x : c) d.add(x);
  for (const auto a : clusters.assignment) d.add(static_cast<std::uint64_t>(a));
  for (const auto s : clusters.sizes) d.add(s);
  d.add(clusters.inertia);
}

std::uint64_t window_digest(const std::vector<cwcsim::window_summary>& ws) {
  digest d;
  d.add(static_cast<std::uint64_t>(ws.size()));
  for (const auto& w : ws) {
    d.add(w.first_sample);
    for (const auto& c : w.cuts) {
      add_point(d, c.sample_index, c.time, c.moments, c.clusters);
      for (const double m : c.medians) d.add(m);
    }
  }
  return d.value();
}

std::uint64_t sweep_digest(const cwcsim::sweep::report& rep) {
  sweep_digest_builder b;
  std::vector<stats::welford> moments;
  for (const auto& cell : rep.cells) {
    for (const auto& p : cell.points) {
      stats::cut_summary c;
      c.sample_index = p.sample_index;
      c.time = p.time;
      for (const auto& o : p.observables) c.moments.push_back(o.moments);
      c.clusters = p.clusters;
      b.add_cut(c);
    }
    b.end_cell();
  }
  return b.value();
}

void sweep_digest_builder::add_cut(const stats::cut_summary& c) {
  add_point(cell_, c.sample_index, c.time, c.moments, c.clusters);
  ++points_;
}

void sweep_digest_builder::end_cell() {
  d_.add(cell_index_++);
  d_.add(points_);
  d_.add(cell_.value());
  cell_ = digest{};
  points_ = 0;
}

// ----------------------------------------------------------------- memory

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

void restart_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  if (!out) throw std::runtime_error("cannot reset /proc/self/clear_refs");
}

void reset_peak_rss() {
  malloc_trim(0);
  restart_peak_rss();
}

cpu_ticks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  cpu_ticks t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) throw std::runtime_error("cannot parse /proc/stat");
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

// ------------------------------------------------------------------ spans

tracer::tracer() : origin_(clock::now()) {}

std::int64_t tracer::begin(const char* name, std::int64_t parent,
                           std::uint64_t request) {
  const auto now = clock::now();
  const std::size_t self = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, fresh] = thread_ids_.try_emplace(
      self, static_cast<std::uint32_t>(thread_ids_.size() + 1));
  spans_.push_back({name, now, now, parent, request, it->second});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void tracer::end(std::int64_t id) {
  const auto now = clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

std::size_t tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> tracer::total_by_name() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& s : spans_) out[s.name] += seconds_between(s.start, s.end);
  return out;
}

std::map<std::string, double> tracer::self_by_name() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent != kNoParent)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);

  std::map<std::string, double> out;
  std::vector<std::pair<clock::time_point, clock::time_point>> cover;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    // Children may overlap (callbacks on several threads): count the
    // union of their intervals, clipped to the parent's.
    cover.clear();
    for (const std::size_t c : children[i])
      cover.emplace_back(std::max(spans_[c].start, s.start),
                         std::min(spans_[c].end, s.end));
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    clock::time_point reach = s.start;
    for (const auto& [a, b] : cover) {
      const auto from = std::max(a, reach);
      if (b > from) {
        covered += seconds_between(from, b);
        reach = b;
      }
    }
    out[s.name] += seconds_between(s.start, s.end) - covered;
  }
  return out;
}

void tracer::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    const double ts = seconds_between(origin_, s.start) * 1e6;
    const double dur = seconds_between(s.start, s.end) * 1e6;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": "
                 "{\"id\": %zu, \"parent\": %lld, \"request\": %llu}}",
                 i == 0 ? "" : ",\n", s.name, ts, dur, s.tid, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n], \"displayTimeUnit\": \"ms\"}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
