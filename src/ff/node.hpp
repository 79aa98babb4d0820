// The ff processing node: one concurrent activity with input and output
// channels, mirroring FastFlow's ff_node.
//
// Lifecycle of a node thread:
//   on_init()
//   source (no normal inputs):   svc(empty) until it returns outcome::end
//   otherwise:                   pop from inputs (normal inputs before
//                                feedback edges, round-robin within each)
//                                and call svc(token) until EOS has been seen
//                                on every *normal* input, or svc returns
//                                outcome::end
//   on_eos()                     -- flush phase; may still send_out()
//   EOS is forwarded on every normal output
//   on_end()
//
// Output routing is a per-node policy: round_robin (default), on_demand
// (first output channel with free space — FastFlow's demand-driven farm
// dispatch), or broadcast.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ff/channel.hpp"
#include "ff/token.hpp"

namespace ff {

enum class outcome {
  more,  ///< keep streaming
  end    ///< node decided to terminate (typical for sources/emitters)
};

enum class out_policy { round_robin, on_demand, broadcast };

class network;

class node {
 public:
  virtual ~node() = default;

  /// Called once in the node's thread before any svc().
  virtual void on_init() {}

  /// Process one input token (or an empty tick for source nodes).
  virtual outcome svc(token t) = 0;

  /// Called after the input stream ended; may still emit via send_out().
  virtual void on_eos() {}

  /// Called last, after EOS has been forwarded downstream.
  virtual void on_end() {}

  /// Called when every *normal* input has delivered EOS while the node is
  /// configured to keep running on feedback edges (see
  /// set_continue_after_eos). Return outcome::end to terminate now.
  virtual outcome on_upstream_eos() { return outcome::more; }

  /// Human-readable name for debugging/tracing.
  const std::string& name() const noexcept { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  void set_out_policy(out_policy p) noexcept { policy_ = p; }
  out_policy policy() const noexcept { return policy_; }

  std::size_t num_inputs() const noexcept { return inputs_.size(); }
  std::size_t num_outputs() const noexcept { return outputs_.size(); }
  std::size_t num_feedback_outputs() const noexcept { return fb_outputs_.size(); }

 protected:
  /// Farm-emitter semantics: after the upstream stream ends, keep
  /// processing feedback tokens until svc()/on_upstream_eos() returns
  /// outcome::end. Without this, EOS on all normal inputs stops the node.
  void set_continue_after_eos(bool v) noexcept { continue_after_eos_ = v; }

  /// Emit a token downstream according to the output policy. Blocks under
  /// backpressure. Returns false when the node has no outputs (token is
  /// dropped — legal for sink stages).
  bool send_out(token t);

  /// Emit a token on the feedback edge(s) (round-robin when several).
  /// Returns false when no feedback edge is wired.
  bool send_feedback(token t);

 private:
  friend class network;

  void add_input(channel* c) { inputs_.push_back(c); }
  void add_output(channel* c, edge_kind k) {
    (k == edge_kind::feedback ? fb_outputs_ : outputs_).push_back(c);
  }

  /// The node main loop, executed by its thread.
  void run_loop();

  std::string name_ = "node";
  network* owner_ = nullptr;
  out_policy policy_ = out_policy::round_robin;
  bool continue_after_eos_ = false;
  std::vector<channel*> inputs_;      // normal + feedback inputs
  std::vector<channel*> outputs_;     // normal outputs
  std::vector<channel*> fb_outputs_;  // feedback outputs
  std::size_t rr_out_ = 0;
  std::size_t rr_fb_ = 0;
};

/// A convenience node defined by three lambdas (init, svc, eos-flush).
/// Useful in tests and small examples.
template <typename Svc>
class lambda_node final : public node {
 public:
  explicit lambda_node(Svc svc) : svc_(std::move(svc)) {}
  outcome svc(token t) override { return svc_(*this, std::move(t)); }

  using node::send_feedback;  // expose to the lambda
  using node::send_out;

 private:
  Svc svc_;
};

template <typename Svc>
auto make_node(Svc svc) {
  return std::make_unique<lambda_node<Svc>>(std::move(svc));
}

}  // namespace ff
