// The layer replay: one campaign re-executed on the calling thread through
// each module's public functions — cwc engines quantum by quantum
// (advance_one_quantum, or batch_engine::step_quantum), then
// cut_assembler::ingest, sliding_window_builder::push and summarize_cut —
// optionally with a span around every call and the dist / svc wire codecs
// applied to what the layers produce. It is both the correctness
// reference of the timed runs (its digest must equal every backend's) and
// the source of the traced run's per-layer numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "cwc/compiled_model.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {

struct replay_options {
  /// Step kBatchWidth-lane batch engines instead of one scalar engine per
  /// trajectory (the model must satisfy batch_engine::supports).
  bool batch = false;
  /// Run the alignment, window and summary stages on the samples.
  bool analyze = true;
  /// Apply the dist quantum_result codec to every scalar quantum and the
  /// svc window codec to every window (encode, then decode).
  bool codecs = false;
  tracer* spans = nullptr;
  std::int64_t parent = tracer::kNoParent;
};

/// Exact work counts and codec traffic of one replay.
struct replay_counts {
  std::uint64_t ssa_steps = 0;   ///< SSA steps over every trajectory
  std::uint64_t samples = 0;     ///< samples emitted
  std::uint64_t quanta = 0;      ///< trajectory quanta (lane quanta if batch)
  std::uint64_t cuts = 0;        ///< cuts summarized
  std::size_t shape_classes = 0; ///< max over batch engines (batch only)
  double dist_bytes = 0.0;       ///< encoded quantum_result bytes
  std::uint64_t proto_frames = 0; ///< svc frames encoded and decoded

  void add(const replay_counts& o);
};

/// Replay one campaign of `cm` under `cfg`; every summarized window goes to
/// `on_window` in stream order (when options.analyze).
replay_counts replay(const std::shared_ptr<const cwc::compiled_model>& cm,
                     const cwcsim::sim_config& cfg, const replay_options& opt,
                     const std::function<void(cwcsim::window_summary&&)>& on_window);

/// The correctness reference of an ensemble campaign or svc session: its
/// window digest from the fastest replay (batch engines where supported).
std::uint64_t reference_digest(const cwc::model& m, const cwcsim::sim_config& cfg);

/// Replay a sweep: one compile, an overlay per cell (a "sweep.overlay"
/// span each when tracing), then each cell's campaign. Returns the sweep
/// digest and adds the work to `counts`.
std::uint64_t replay_sweep(const sweep_spec& s, const replay_options& opt,
                           replay_counts& counts);

}  // namespace perfbench
