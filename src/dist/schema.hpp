// The wire schema registry: every versioned frame family of the
// distributed/service stack, and THE single bump point for all of them.
//
// Before this header existed, the schema version byte lived in
// archive.hpp and each frame family (the compiled-model frame of
// model_codec, the block_result checkpoint frame of the elastic
// scheduler, the svc session frames of the run server) implicitly reused
// it. Centralizing the constants here makes the coupling explicit: a
// layout change in ANY framed message bumps wire_schema_version below,
// and every family rejects foreign frames with the same typed
// schema_mismatch_error (dist/archive.hpp).
//
// Registry rules:
//   - wire_schema_version is the only constant anyone bumps.
//   - Each family below aliases it; a family that ever needs independent
//     evolution gets its own literal here — never a magic number at the
//     encode/decode site.
//   - Frames carry the version as their first byte (put_schema_header /
//     check_schema_header in dist/archive.hpp).
#pragma once

#include <cstdint>

namespace dist {

/// THE single bump point. Incompatible change to any framed layout =>
/// +1 here, and every decoder in this build rejects older frames.
/// v3: svc resilience frames — sequenced downlink stream frames,
/// cumulative acks, heartbeat/retry_after, resume fields in open.
/// v4: quantum_result frames lose the optional trace record, and the
/// sim_config codec its dispatch, worker-queue and trace fields.
/// v5: the elastic scheduler leases lane blocks: grants name a block and
/// its lanes, and one block_result frame carries every live lane of a
/// (block, quantum).
/// v6: svc sessions are named at connect time: open names a token and the
/// next sequence it lacks, open_ok carries only the pool width, and one
/// ack frame replaces credit and heartbeat (retry_after moves to tag 11).
/// v7: svc frames carry no server settings: open loses its window, open_ok
/// its payload (the pool width) and retry_after its retry hint.
inline constexpr std::uint8_t wire_schema_version = 7;

/// Framed-archive header version (put_schema_header/check_schema_header).
inline constexpr std::uint8_t archive_schema_version = wire_schema_version;

/// Compiled-model description frames (dist/model_codec.hpp), shipped
/// master -> host once per distributed run and client -> server once per
/// service open request.
inline constexpr std::uint8_t model_frame_version = wire_schema_version;

/// Elastic-scheduler checkpoint frames (dist::block_result, and the
/// single-lane dist::quantum_result).
inline constexpr std::uint8_t checkpoint_frame_version = wire_schema_version;

/// Multi-tenant run-server session frames (svc/proto.hpp).
inline constexpr std::uint8_t svc_frame_version = wire_schema_version;

}  // namespace dist
