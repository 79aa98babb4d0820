// Discrete-event simulation core: a virtual clock and an ordered event
// queue. All platform performance models (multicore farm, cluster, cloud,
// GPU) execute on this engine, replaying real measured workload traces:
// the paper's 32-core, cluster, cloud and GPU platforms are not at hand, so
// their speedups are modelled from the measured work instead of timed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace des {

class engine {
 public:
  using handler = std::function<void()>;

  double now() const noexcept { return now_; }

  /// Schedule `h` at absolute virtual time `t` (>= now).
  void at(double t, handler h);

  /// Schedule `h` after `dt` virtual seconds.
  void after(double dt, handler h) { at(now_ + dt, std::move(h)); }

  /// Run until the event queue drains. Returns the final clock value.
  double run();

  /// Events executed so far (diagnostic).
  std::uint64_t events_executed() const noexcept { return executed_; }

 private:
  struct event {
    double t;
    std::uint64_t seq;  // FIFO tie-break for simultaneous events
    handler h;
  };
  struct later {
    bool operator()(const event& a, const event& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<event, std::vector<event>, later> q_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace des
