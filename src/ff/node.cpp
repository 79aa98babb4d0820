#include "ff/node.hpp"

#include <optional>

#include "ff/network.hpp"
#include "util/check.hpp"

namespace ff {

bool node::send_out(token t) {
  if (outputs_.empty()) return false;
  switch (policy_) {
    case out_policy::round_robin: {
      channel& c = *outputs_[rr_out_];
      rr_out_ = (rr_out_ + 1) % outputs_.size();
      c.push(std::move(t));
      return true;
    }
    case out_policy::on_demand: {
      // Demand-driven dispatch: deliver to the first successor whose bounded
      // input queue has space. With small capacities this is FastFlow's
      // auto-load-balancing farm schedule.
      std::size_t spins = 0;
      for (;;) {
        for (std::size_t k = 0; k < outputs_.size(); ++k) {
          channel& c = *outputs_[(rr_out_ + k) % outputs_.size()];
          if (!c.full()) {
            rr_out_ = (rr_out_ + k + 1) % outputs_.size();
            c.push(std::move(t));
            return true;
          }
        }
        channel::backoff(spins);
      }
    }
    case out_policy::broadcast: {
      // Tokens are move-only; broadcasting a payload would need a copy.
      // Broadcast is reserved for control tokens (empty / EOS).
      util::expects(!t.has_value(), "broadcast supports control tokens only");
      for (auto* c : outputs_) c->push(t.is_eos() ? token::eos() : token{});
      return true;
    }
  }
  return false;
}

bool node::send_feedback(token t) {
  if (fb_outputs_.empty()) return false;
  channel& c = *fb_outputs_[rr_fb_];
  rr_fb_ = (rr_fb_ + 1) % fb_outputs_.size();
  c.push(std::move(t));
  return true;
}

void node::run_loop() {
  try {
    on_init();

    if (inputs_.empty()) {
      // Pure source: tick until the node declares the stream finished.
      while (svc(token{}) == outcome::more) {
      }
    } else {
      // Normal inputs are scanned before feedback inputs, each class
      // round-robin, one token per scan: a feedback farm's emitter takes
      // every task its (finite) upstream offers before it continues a
      // fed-back one. Feedback edges are unbounded, so nothing blocks
      // meanwhile.
      std::vector<channel*> normal, feedback;
      for (auto* c : inputs_)
        (c->kind() == edge_kind::normal ? normal : feedback).push_back(c);
      std::size_t open_normal = normal.size();
      std::size_t rr_normal = 0, rr_feedback = 0;
      auto try_pop = [](const std::vector<channel*>& from, std::size_t& rr) {
        for (std::size_t k = 0; k < from.size(); ++k) {
          const std::size_t i = (rr + k) % from.size();
          if (auto t = from[i]->try_pop()) {
            rr = (i + 1) % from.size();
            return t;
          }
        }
        return std::optional<token>{};
      };

      bool done = false;
      std::size_t spins = 0;
      while (!done) {
        bool from_normal = true;
        auto t = try_pop(normal, rr_normal);
        if (!t) {
          from_normal = false;
          t = try_pop(feedback, rr_feedback);
        }
        if (!t) {
          channel::backoff(spins);
          continue;
        }
        spins = 0;
        if (t->is_eos()) {
          // EOS on feedback edges is ignored: cycle termination is the
          // receiving node's own decision (outcome::end).
          if (from_normal && --open_normal == 0) {
            if (continue_after_eos_) {
              if (on_upstream_eos() == outcome::end) done = true;
            } else {
              done = true;
            }
          }
        } else if (svc(std::move(*t)) == outcome::end) {
          done = true;
        }
      }
    }

    on_eos();
    for (auto* c : outputs_) c->push(token::eos());
    on_end();
  } catch (...) {
    // Surface the failure to wait() and shut the downstream graph down so
    // sibling threads do not spin forever.
    if (owner_ != nullptr) owner_->record_exception(std::current_exception());
    for (auto* c : outputs_) c->push(token::eos());
  }
}

}  // namespace ff
