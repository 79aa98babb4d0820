// The farm core pattern: emitter -> N workers -> collector, with optional
// feedback channel (workers or collector back to the emitter) — the exact
// shape of the CWC "farm of simulation engines" (paper Fig. 2).
//
// Dispatch policies:
//   round_robin — static cyclic distribution;
//   on_demand   — demand-driven: small bounded worker queues, the emitter
//                 hands each task to the first worker with a free slot
//                 (FastFlow's auto scheduling; the load-balancing knob the
//                 paper relies on for heavily unbalanced trajectories).
#pragma once

#include <memory>
#include <vector>

#include "ff/pattern.hpp"

namespace ff {

/// Where the feedback edge originates.
enum class feedback_from { none, workers, collector };

class farm final : public pattern {
 public:
  /// A farm over user-supplied worker nodes (at least one).
  explicit farm(std::vector<std::unique_ptr<node>> workers);

  /// Replace the default forwarding emitter. The emitter's svc() receives
  /// both upstream tokens and (when feedback is enabled) fed-back tokens.
  farm& set_emitter(std::unique_ptr<node> e);

  /// Replace the default forwarding collector, or pass nullptr after
  /// remove_collector() semantics are wanted.
  farm& set_collector(std::unique_ptr<node> c);

  /// Drop the collector stage entirely: workers become the farm's output
  /// boundary (their streams merge at the next pipeline stage).
  farm& remove_collector() noexcept;

  /// Emitter -> worker dispatch policy. Default: on_demand.
  farm& set_dispatch(out_policy p) noexcept;

  /// Wire a feedback edge back to the emitter. Feedback channels are
  /// unbounded so the cycle cannot deadlock under backpressure. The
  /// emitter drains its upstream input before it serves fed-back tokens
  /// (round-robin among them), so with a finite upstream every task starts
  /// before any continues.
  farm& enable_feedback(feedback_from src) noexcept;

  std::size_t num_workers() const noexcept { return workers_.size(); }

  ports materialize(network& net) override;

  /// Build into a private network and execute to completion.
  void run_and_wait();

 private:
  /// Capacity of each emitter->worker channel: on-demand scheduling wants
  /// it small (FastFlow-style).
  static constexpr std::size_t worker_capacity = 2;

  std::vector<std::unique_ptr<node>> workers_;
  std::unique_ptr<node> emitter_;
  std::unique_ptr<node> collector_;
  bool has_collector_ = true;
  out_policy dispatch_ = out_policy::on_demand;
  feedback_from feedback_ = feedback_from::none;
};

/// Convenience: build a farm whose workers are `n` copies produced by a
/// factory callable returning std::unique_ptr<node>.
template <typename Factory>
farm make_farm(std::size_t n, Factory&& make_worker) {
  std::vector<std::unique_ptr<node>> ws;
  ws.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ws.push_back(make_worker(i));
  return farm(std::move(ws));
}

}  // namespace ff
