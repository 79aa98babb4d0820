// Wire codecs for the pipeline messages that cross host boundaries in the
// distributed deployment — the elastic-scheduling control plane (work
// requests/grants pulled by hosts at their observed throughput) and the
// per-quantum checkpoint frames (quantum_result) that carry samples to the
// master's alignment stage and make re-issue after a host failure cost
// only the in-flight quantum — plus the completion, window-summary and
// configuration codecs the run-server protocol (svc/proto.hpp) reuses.
#pragma once

#include "core/config.hpp"
#include "core/messages.hpp"
#include "dist/archive.hpp"

namespace dist {

/// Message kind tag prepended by the distributed backend so a single
/// channel can carry heterogeneous traffic. The byte values are wire
/// format: 1-3 are retired and stay unused.
enum class wire_tag : std::uint8_t {
  work_request = 4,    ///< host -> master: an idle worker pulls work
  work_grant = 5,      ///< master -> host: run one trajectory's quanta
  quantum_result = 6,  ///< host -> master: one quantum + its checkpoint
  shutdown = 7,        ///< master -> host: campaign over, drain and exit
};

/// Host -> master: worker (`host`, `worker`) is idle and pulls the next
/// grant. At-least-once: a worker whose grant was lost re-sends after a
/// bounded wait, and the master's exactly-once accounting absorbs any
/// duplicate grants that result.
struct work_request {
  std::uint32_t host = 0;
  std::uint32_t worker = 0;
};

/// Master -> host: advance `trajectory_id`, resuming at quantum
/// `resume_quantum` (0 = fresh trajectory). Because every engine is a pure
/// function of (seed, trajectory_id), ANY host resumes deterministically:
/// it replays quanta [0, resume_quantum) locally without emitting, then
/// streams results from the checkpoint onward.
struct work_grant {
  std::uint64_t trajectory_id = 0;
  std::uint64_t resume_quantum = 0;
};

/// Host -> master: one executed quantum — samples AND the per-trajectory
/// progress checkpoint in one atomic frame (schema-versioned). Coupling
/// them means a lost/dropped message loses the whole quantum: the master
/// can never ingest samples without advancing the checkpoint, nor advance
/// the checkpoint past samples it never saw. The master accepts a frame
/// only when `quantum_index` equals the trajectory's acked high-water
/// mark, which makes accounting exactly-once under re-issue, duplication,
/// and loss.
struct quantum_result {
  std::uint32_t host = 0;           ///< executing host (per-host stats)
  std::uint64_t trajectory_id = 0;
  std::uint64_t quantum_index = 0;
  double time = 0.0;                ///< engine time after this quantum
  std::uint64_t steps = 0;          ///< cumulative SSA steps
  bool finished = false;            ///< trajectory reached t_end
  std::vector<cwc::trajectory_sample> samples;
};

// Streaming forms: append to / read from an open archive, so callers can
// frame messages (tag + payload) without re-copying the encoded bytes.
void write_task_done(archive_writer& w, const cwcsim::task_done& d);
cwcsim::task_done read_task_done(archive_reader& r);

void write_work_request(archive_writer& w, const work_request& rq);
work_request read_work_request(archive_reader& r);
void write_work_grant(archive_writer& w, const work_grant& g);
work_grant read_work_grant(archive_reader& r);
/// quantum_result frames carry the archive schema header (they are the
/// checkpoint format a resuming master must be able to trust); read_
/// throws schema_mismatch_error on a frame from a foreign build.
void write_quantum_result(archive_writer& w, const quantum_result& q);
quantum_result read_quantum_result(archive_reader& r);

// Analysis-result and configuration codecs, used by the run-server layer
// (svc/proto.hpp) to stream per-tenant windows back to clients and to
// carry a whole run request in one frame. Summaries round-trip bit-exactly:
// welford accumulators ship their raw state (stats::welford_state), never
// derived quantities. The sim_config codec carries every field, so a
// decoded config compares equal to the encoded one.
void write_window_summary(archive_writer& w, const cwcsim::window_summary& s);
cwcsim::window_summary read_window_summary(archive_reader& r);
void write_sim_config(archive_writer& w, const cwcsim::sim_config& cfg);
cwcsim::sim_config read_sim_config(archive_reader& r);

// Whole-buffer convenience forms.
byte_buffer encode_task_done(const cwcsim::task_done& d);
cwcsim::task_done decode_task_done(const byte_buffer& bytes);

byte_buffer encode_quantum_result(const quantum_result& q);
quantum_result decode_quantum_result(const byte_buffer& bytes);

}  // namespace dist
