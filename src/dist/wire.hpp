// Wire codecs for the pipeline messages that cross host boundaries in the
// distributed deployment — the elastic-scheduling control plane (work
// requests, and lane-block leases granted by the master's quantum ledger)
// and the per-(block, quantum) checkpoint frames (block_result) that carry
// samples to the master's alignment stage and make re-issue after a host
// failure cost only the in-flight quantum — plus the completion,
// window-summary and configuration codecs the run-server protocol
// (svc/proto.hpp) reuses.
#pragma once

#include <span>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "dist/archive.hpp"

namespace dist {

/// Message kind tag prepended by the distributed backend so a single
/// channel can carry heterogeneous traffic. The byte values are wire
/// format: 1-3 are retired and stay unused.
enum class wire_tag : std::uint8_t {
  work_request = 4,   ///< host -> master: a worker asks for its next lease
  work_grant = 5,     ///< master -> host: run one quantum of one lane block
  block_result = 6,   ///< host -> master: that quantum + the block's checkpoint
  shutdown = 7,       ///< master -> host: campaign over, drain and exit
  block_release = 8,  ///< master -> host: drop block <u64>, it moved away
};

/// Host -> master: worker (`host`, `worker`) asks for a lease. A worker
/// asks for the next lease as it starts the current one (the farm's
/// two-slot queue), and re-asks after a bounded wait when idle; the
/// master absorbs repeats while a request waits.
struct work_request {
  std::uint32_t host = 0;
  std::uint32_t worker = 0;
};

/// Master -> host: run quantum `quantum` of lane block `block`, the
/// trajectories [first_trajectory, first_trajectory + lanes). `quantum` is
/// the block's checkpoint. Every engine is a pure function of
/// (seed, trajectory_id), so ANY host resumes the block deterministically:
/// a host that does not hold the block at `quantum` replays quanta
/// [0, quantum) locally without emitting, then runs this one.
struct work_grant {
  std::uint64_t block = 0;
  std::uint64_t first_trajectory = 0;
  std::uint64_t lanes = 0;
  std::uint64_t quantum = 0;
};

/// One lane's share of one quantum: its samples and where the lane stands.
/// A block_result carries one per live lane. The stand-alone codec below
/// frames a single lane; no run sends it, and perfbench's dist codec span
/// still times it.
struct quantum_result {
  std::uint32_t host = 0;           ///< executing host (per-host stats)
  std::uint64_t trajectory_id = 0;
  std::uint64_t quantum_index = 0;
  double time = 0.0;                ///< engine time after this quantum
  std::uint64_t steps = 0;          ///< cumulative SSA steps
  bool finished = false;            ///< trajectory reached t_end
  std::vector<cwc::trajectory_sample> samples;
};

/// Host -> master: one executed quantum of one lane block — every lane
/// that was live in it, in lane order — AND the block's checkpoint, in
/// one atomic schema-versioned frame. Coupling them means a lost frame
/// loses the whole quantum: the master can never ingest samples without
/// advancing the checkpoint, nor advance it past samples it never saw. The
/// master accepts a frame only when `quantum_index` equals the block's
/// checkpoint, which makes accounting exactly-once under re-issue,
/// duplication and loss.
struct block_result {
  std::uint32_t host = 0;
  std::uint64_t block = 0;
  std::uint64_t quantum_index = 0;
  /// Lane records; each carries the frame's host and quantum_index.
  std::vector<quantum_result> lanes;

  /// Every lane that was live reached t_end: the block is done.
  bool finished() const;
};

// Streaming forms: append to / read from an open archive, so callers can
// frame messages (tag + payload) without re-copying the encoded bytes.
void write_task_done(archive_writer& w, const cwcsim::task_done& d);
cwcsim::task_done read_task_done(archive_reader& r);

void write_work_request(archive_writer& w, const work_request& rq);
work_request read_work_request(archive_reader& r);
void write_work_grant(archive_writer& w, const work_grant& g);
work_grant read_work_grant(archive_reader& r);
/// Checkpoint frames carry the archive schema header (they are the format
/// a resuming master must be able to trust); the readers throw
/// schema_mismatch_error on a frame from a foreign build.
void write_quantum_result(archive_writer& w, const quantum_result& q);
quantum_result read_quantum_result(archive_reader& r);
block_result read_block_result(archive_reader& r);
/// The block frame written lane by lane, straight from an executor's
/// round: begin with the number of live lanes, then one put_lane_result
/// per lane, in lane order.
void begin_block_result(archive_writer& w, std::uint32_t host,
                        std::uint64_t block, std::uint64_t quantum_index,
                        std::uint64_t lanes);
void put_lane_result(archive_writer& w, std::uint64_t trajectory_id,
                     double time, std::uint64_t steps, bool finished,
                     std::span<const cwc::trajectory_sample> samples);

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
byte_buffer encode_quantum_result(const quantum_result& q);
quantum_result decode_quantum_result(const byte_buffer& bytes);

}  // namespace dist
