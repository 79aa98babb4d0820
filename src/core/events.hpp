// The streaming-event surface between backends and their consumer: what a
// running deployment pushes results into, and the cooperative stop flag it
// polls. Split from backend.hpp so the core pipeline layer (nodes) can
// depend on the event contract without seeing the backend-descriptor
// headers that sit above it.
#pragma once

#include <cstdint>

#include "core/messages.hpp"

namespace cwcsim {

/// Progress snapshot delivered to on_progress subscribers.
struct progress {
  std::uint64_t trajectories_done = 0;
  std::uint64_t trajectories_total = 0;
  std::uint64_t windows_emitted = 0;
  /// Trajectory quanta an elastic scheduler re-issued (straggler deadline
  /// expiry or host failure): a re-issued lease of one lane block counts
  /// once per unfinished trajectory in the block, like the run server's
  /// quanta_* counters, not once per grant. 0 on non-elastic backends and
  /// healthy runs.
  std::uint64_t quanta_reissued = 0;
};

/// What a backend driver pushes results into while running. Implementations
/// must tolerate concurrent calls from different pipeline threads (the
/// session serializes delivery internally). stop_requested() is the
/// cooperative-cancellation flag drivers poll at scheduling boundaries.
class event_sink {
 public:
  virtual ~event_sink() = default;

  /// One window summary, in time (first_sample) order. The driver hands
  /// over ownership and must NOT also store it in run_report::result —
  /// the caller owns collection (no terminal gather-then-copy).
  virtual void window(window_summary&& w) = 0;

  /// One trajectory reached t_end (streamed as completions happen).
  virtual void trajectory_done(const task_done& d) = 0;

  /// True once cancellation was requested; drivers finish the current
  /// quantum/kernel, stop scheduling new work, and drain.
  virtual bool stop_requested() const noexcept = 0;

  /// Elastic-scheduling telemetry: the scheduler re-issued `trajectory`'s
  /// remaining quanta starting at `from_quantum` (straggler deadline
  /// expired, or the owning host died). Informational — results stay
  /// exactly-once regardless. Default: ignore.
  virtual void quantum_reissued(std::uint64_t /*trajectory*/,
                                std::uint64_t /*from_quantum*/) {}

  /// Sweep campaigns (sweep/campaign.hpp): `done` of `total` trajectories
  /// of parameter cell `cell` reached t_end. Default: ignore.
  virtual void cell_progress(std::uint32_t /*cell*/, std::uint64_t /*done*/,
                             std::uint64_t /*total*/) {}

  /// Sweep campaigns: every trajectory of parameter cell `cell` finished
  /// and its report reductions are final. Default: ignore.
  virtual void cell_done(std::uint32_t /*cell*/) {}
};

}  // namespace cwcsim
