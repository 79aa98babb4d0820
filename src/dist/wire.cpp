#include "dist/wire.hpp"

#include <algorithm>

namespace dist {

namespace {

// Smallest encodings of the repeated records below, for archive_reader::
// get_count: a sample is its time plus a length-prefixed value vector; a
// lane record of a block frame is its fixed fields and a sample count; a
// cut summary is its fixed fields plus five counts/length prefixes (its
// moments, medians, centroids, assignment and sizes) when all are empty.
constexpr std::size_t kSampleMinBytes = sizeof(double) + sizeof(std::uint64_t);
/// A lane record: id, time, steps, finished flag and its sample count.
constexpr std::size_t kLaneMinBytes =
    3 * sizeof(std::uint64_t) + sizeof(std::uint8_t) + sizeof(double);
constexpr std::size_t kCutMinBytes =
    sizeof(std::uint64_t) + sizeof(double) + 5 * sizeof(std::uint64_t) +
    sizeof(double) + sizeof(std::uint32_t);

}  // namespace

void write_task_done(archive_writer& w, const cwcsim::task_done& d) {
  w.put<std::uint64_t>(d.trajectory_id);
  w.put<std::uint64_t>(d.quanta);
  w.put<std::uint64_t>(d.steps);
}

cwcsim::task_done read_task_done(archive_reader& r) {
  cwcsim::task_done d;
  d.trajectory_id = r.get<std::uint64_t>();
  d.quanta = r.get<std::uint64_t>();
  d.steps = r.get<std::uint64_t>();
  return d;
}

void write_work_request(archive_writer& w, const work_request& rq) {
  w.put<std::uint32_t>(rq.host);
  w.put<std::uint32_t>(rq.worker);
}

work_request read_work_request(archive_reader& r) {
  work_request rq;
  rq.host = r.get<std::uint32_t>();
  rq.worker = r.get<std::uint32_t>();
  return rq;
}

void write_work_grant(archive_writer& w, const work_grant& g) {
  w.put<std::uint64_t>(g.block);
  w.put<std::uint64_t>(g.first_trajectory);
  w.put<std::uint64_t>(g.lanes);
  w.put<std::uint64_t>(g.quantum);
}

work_grant read_work_grant(archive_reader& r) {
  work_grant g;
  g.block = r.get<std::uint64_t>();
  g.first_trajectory = r.get<std::uint64_t>();
  g.lanes = r.get<std::uint64_t>();
  g.quantum = r.get<std::uint64_t>();
  return g;
}

namespace {

/// What every lane record ends with: where the lane stands and its samples.
void put_lane_tail(archive_writer& w, double time, std::uint64_t steps,
                   bool finished,
                   std::span<const cwc::trajectory_sample> samples) {
  w.put<double>(time);
  w.put<std::uint64_t>(steps);
  w.put<std::uint8_t>(finished ? 1 : 0);
  w.put<std::uint64_t>(samples.size());
  for (const auto& s : samples) {
    w.put<double>(s.time);
    w.put_vector<double>(s.values);
  }
}

void read_lane_tail(archive_reader& r, quantum_result& q) {
  q.time = r.get<double>();
  q.steps = r.get<std::uint64_t>();
  q.finished = r.get<std::uint8_t>() != 0;
  const std::size_t n = r.get_count(kSampleMinBytes);
  q.samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cwc::trajectory_sample s;
    s.time = r.get<double>();
    s.values = r.get_vector<double>();
    q.samples.push_back(std::move(s));
  }
}

}  // namespace

void put_lane_result(archive_writer& w, std::uint64_t trajectory_id,
                     double time, std::uint64_t steps, bool finished,
                     std::span<const cwc::trajectory_sample> samples) {
  w.put<std::uint64_t>(trajectory_id);
  put_lane_tail(w, time, steps, finished, samples);
}

void write_quantum_result(archive_writer& w, const quantum_result& q) {
  put_schema_header(w);
  w.put<std::uint32_t>(q.host);
  w.put<std::uint64_t>(q.trajectory_id);
  w.put<std::uint64_t>(q.quantum_index);
  put_lane_tail(w, q.time, q.steps, q.finished, q.samples);
}

quantum_result read_quantum_result(archive_reader& r) {
  check_schema_header(r);
  quantum_result q;
  q.host = r.get<std::uint32_t>();
  q.trajectory_id = r.get<std::uint64_t>();
  q.quantum_index = r.get<std::uint64_t>();
  read_lane_tail(r, q);
  return q;
}

bool block_result::finished() const {
  return std::all_of(lanes.begin(), lanes.end(),
                     [](const quantum_result& q) { return q.finished; });
}

void begin_block_result(archive_writer& w, std::uint32_t host,
                        std::uint64_t block, std::uint64_t quantum_index,
                        std::uint64_t lanes) {
  put_schema_header(w);
  w.put<std::uint32_t>(host);
  w.put<std::uint64_t>(block);
  w.put<std::uint64_t>(quantum_index);
  w.put<std::uint64_t>(lanes);
}

block_result read_block_result(archive_reader& r) {
  check_schema_header(r);
  block_result b;
  b.host = r.get<std::uint32_t>();
  b.block = r.get<std::uint64_t>();
  b.quantum_index = r.get<std::uint64_t>();
  const std::size_t n = r.get_count(kLaneMinBytes);
  b.lanes.resize(n);
  for (auto& q : b.lanes) {
    q.host = b.host;
    q.quantum_index = b.quantum_index;
    q.trajectory_id = r.get<std::uint64_t>();
    read_lane_tail(r, q);
  }
  return b;
}

void write_window_summary(archive_writer& w, const cwcsim::window_summary& s) {
  w.put<std::uint64_t>(s.first_sample);
  w.put<std::uint64_t>(s.cuts.size());
  for (const auto& c : s.cuts) {
    w.put<std::uint64_t>(c.sample_index);
    w.put<double>(c.time);
    w.put<std::uint64_t>(c.moments.size());
    for (const auto& m : c.moments) w.put<stats::welford_state>(m.snapshot());
    w.put_vector(c.medians);
    const auto& k = c.clusters;
    w.put<std::uint64_t>(k.centroids.size());
    for (const auto& centre : k.centroids) w.put_vector(centre);
    w.put_vector(k.assignment);
    w.put_vector(k.sizes);
    w.put<double>(k.inertia);
    w.put<std::uint32_t>(k.iterations);
  }
}

cwcsim::window_summary read_window_summary(archive_reader& r) {
  cwcsim::window_summary s;
  s.first_sample = r.get<std::uint64_t>();
  const std::size_t n_cuts = r.get_count(kCutMinBytes);
  s.cuts.reserve(n_cuts);
  for (std::size_t i = 0; i < n_cuts; ++i) {
    stats::cut_summary c;
    c.sample_index = r.get<std::uint64_t>();
    c.time = r.get<double>();
    const std::size_t n_moments = r.get_count(sizeof(stats::welford_state));
    c.moments.reserve(n_moments);
    for (std::size_t m = 0; m < n_moments; ++m)
      c.moments.push_back(stats::welford::from_state(r.get<stats::welford_state>()));
    c.medians = r.get_vector<double>();
    const std::size_t n_centroids = r.get_count(sizeof(std::uint64_t));
    c.clusters.centroids.reserve(n_centroids);
    for (std::size_t k = 0; k < n_centroids; ++k)
      c.clusters.centroids.push_back(r.get_vector<double>());
    c.clusters.assignment = r.get_vector<std::uint32_t>();
    c.clusters.sizes = r.get_vector<std::uint64_t>();
    c.clusters.inertia = r.get<double>();
    c.clusters.iterations = r.get<std::uint32_t>();
    s.cuts.push_back(std::move(c));
  }
  return s;
}

void write_sim_config(archive_writer& w, const cwcsim::sim_config& cfg) {
  w.put<std::uint64_t>(cfg.num_trajectories);
  w.put<double>(cfg.t_end);
  w.put<double>(cfg.sample_period);
  w.put<double>(cfg.quantum);
  w.put<std::uint64_t>(cfg.seed);
  w.put<std::uint32_t>(cfg.sim_workers);
  w.put<std::uint32_t>(cfg.stat_engines);
  w.put<std::uint64_t>(cfg.window_size);
  w.put<std::uint64_t>(cfg.window_slide);
  w.put<std::uint32_t>(cfg.kmeans_k);
}

cwcsim::sim_config read_sim_config(archive_reader& r) {
  cwcsim::sim_config cfg;
  cfg.num_trajectories = r.get<std::uint64_t>();
  cfg.t_end = r.get<double>();
  cfg.sample_period = r.get<double>();
  cfg.quantum = r.get<double>();
  cfg.seed = r.get<std::uint64_t>();
  cfg.sim_workers = r.get<std::uint32_t>();
  cfg.stat_engines = r.get<std::uint32_t>();
  cfg.window_size = static_cast<std::size_t>(r.get<std::uint64_t>());
  cfg.window_slide = static_cast<std::size_t>(r.get<std::uint64_t>());
  cfg.kmeans_k = r.get<std::uint32_t>();
  return cfg;
}

byte_buffer encode_quantum_result(const quantum_result& q) {
  archive_writer w;
  write_quantum_result(w, q);
  return w.take();
}

quantum_result decode_quantum_result(const byte_buffer& bytes) {
  archive_reader r(bytes);
  return read_quantum_result(r);
}

}  // namespace dist
