#include "svc/proto.hpp"

#include <stdexcept>
#include <utility>

namespace svc {

namespace {

dist::archive_writer begin_frame(svc_tag tag) {
  dist::archive_writer w;
  w.put(tag);
  dist::put_schema_header(w);
  return w;
}

}  // namespace

// ---- uplink ------------------------------------------------------------

dist::byte_buffer encode_open(const open_request& rq) {
  auto w = begin_frame(svc_tag::open);
  w.put<std::uint64_t>(rq.conn_id);
  w.put<double>(rq.weight);
  w.put<std::uint64_t>(rq.token);
  w.put<std::uint64_t>(rq.next_seq);
  dist::write_sim_config(w, rq.cfg);
  w.put_vector(rq.model_frame);
  w.put<std::uint64_t>(rq.local_model);
  return w.take();
}

open_request read_open(dist::archive_reader& r) {
  open_request rq;
  rq.conn_id = r.get<std::uint64_t>();
  rq.weight = r.get<double>();
  rq.token = r.get<std::uint64_t>();
  rq.next_seq = r.get<std::uint64_t>();
  rq.cfg = dist::read_sim_config(r);
  rq.model_frame = r.get_vector<std::byte>();
  rq.local_model = r.get<std::uint64_t>();
  return rq;
}

dist::byte_buffer encode_ack(std::uint64_t conn_id,
                             std::uint64_t consumed_total) {
  auto w = begin_frame(svc_tag::ack);
  w.put<std::uint64_t>(conn_id);
  w.put<std::uint64_t>(consumed_total);
  return w.take();
}

stream_ack read_ack(dist::archive_reader& r) {
  stream_ack a;
  a.conn_id = r.get<std::uint64_t>();
  a.consumed_total = r.get<std::uint64_t>();
  return a;
}

dist::byte_buffer encode_cancel(std::uint64_t conn_id) {
  auto w = begin_frame(svc_tag::cancel);
  w.put<std::uint64_t>(conn_id);
  return w.take();
}

dist::byte_buffer encode_close(std::uint64_t conn_id) {
  auto w = begin_frame(svc_tag::close);
  w.put<std::uint64_t>(conn_id);
  return w.take();
}

std::uint64_t read_conn_id(dist::archive_reader& r) {
  return r.get<std::uint64_t>();
}

// ---- downlink ----------------------------------------------------------

dist::byte_buffer encode_open_ok() {
  return begin_frame(svc_tag::open_ok).take();
}

dist::byte_buffer encode_open_error(const std::string& reason) {
  auto w = begin_frame(svc_tag::open_error);
  w.put_string(reason);
  return w.take();
}

std::string read_reason(dist::archive_reader& r) { return r.get_string(); }

dist::byte_buffer encode_retry_after(const std::string& reason) {
  auto w = begin_frame(svc_tag::retry_after);
  w.put_string(reason);
  return w.take();
}

dist::byte_buffer encode_error(std::uint64_t seq, const std::string& reason) {
  auto w = begin_frame(svc_tag::error);
  w.put<std::uint64_t>(seq);
  w.put_string(reason);
  return w.take();
}

seq_error read_error(dist::archive_reader& r) {
  seq_error e;
  e.seq = r.get<std::uint64_t>();
  e.reason = r.get_string();
  return e;
}

dist::byte_buffer encode_window(std::uint64_t seq,
                                const cwcsim::window_summary& s) {
  auto w = begin_frame(svc_tag::window);
  w.put<std::uint64_t>(seq);
  dist::write_window_summary(w, s);
  return w.take();
}

seq_window read_window(dist::archive_reader& r) {
  seq_window s;
  s.seq = r.get<std::uint64_t>();
  s.window = dist::read_window_summary(r);
  return s;
}

dist::byte_buffer encode_trajectory_done(std::uint64_t seq,
                                         const cwcsim::task_done& d) {
  auto w = begin_frame(svc_tag::trajectory_done);
  w.put<std::uint64_t>(seq);
  dist::write_task_done(w, d);
  return w.take();
}

seq_task_done read_trajectory_done(dist::archive_reader& r) {
  seq_task_done d;
  d.seq = r.get<std::uint64_t>();
  d.done = dist::read_task_done(r);
  return d;
}

dist::byte_buffer encode_complete(const run_complete& c) {
  auto w = begin_frame(svc_tag::complete);
  w.put<std::uint64_t>(c.seq);
  w.put<std::uint8_t>(c.stopped ? 1 : 0);
  w.put<std::uint64_t>(c.trajectories);
  w.put<std::uint64_t>(c.quanta);
  return w.take();
}

run_complete read_complete(dist::archive_reader& r) {
  run_complete c;
  c.seq = r.get<std::uint64_t>();
  c.stopped = r.get<std::uint8_t>() != 0;
  c.trajectories = r.get<std::uint64_t>();
  c.quanta = r.get<std::uint64_t>();
  return c;
}

svc_tag read_frame_header(dist::archive_reader& r) {
  const auto tag = r.get<svc_tag>();
  if (static_cast<std::uint8_t>(tag) < 1 ||
      static_cast<std::uint8_t>(tag) >
          static_cast<std::uint8_t>(svc_tag::retry_after))
    throw std::runtime_error("svc frame: unknown tag");
  dist::check_schema_header(r);
  return tag;
}

}  // namespace svc
