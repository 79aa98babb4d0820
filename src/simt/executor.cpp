#include "simt/executor.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "util/check.hpp"

namespace simt {

kernel_stats kernel_makespan(std::span<const double> lane_seconds,
                             const device_spec& dev, double path_divergence) {
  kernel_stats st;
  st.warp_size = dev.warp_size;
  if (lane_seconds.empty()) return st;
  util::expects(dev.warp_size > 0 && dev.concurrent_warps > 0,
                "degenerate device");
  util::expects(path_divergence >= 0.0 && path_divergence <= 1.0,
                "path_divergence must be in [0,1]");

  // Pack lanes into warps in index order; a warp runs at least as long as
  // its slowest lane (load divergence), plus the serialised share of the
  // other lanes' work when instruction paths diverge.
  std::vector<double> warp_time;
  for (std::size_t i = 0; i < lane_seconds.size(); i += dev.warp_size) {
    const std::size_t end = std::min(lane_seconds.size(),
                                     i + static_cast<std::size_t>(dev.warp_size));
    double wmax = 0.0;
    double wsum = 0.0;
    for (std::size_t l = i; l < end; ++l) {
      util::expects(lane_seconds[l] >= 0.0, "negative lane time");
      st.busy_lane_seconds += lane_seconds[l];
      wsum += lane_seconds[l];
      wmax = std::max(wmax, lane_seconds[l]);
    }
    const double wt = wmax + path_divergence * (wsum - wmax);
    warp_time.push_back(wt);
    st.busy_warp_seconds += wt;
  }
  st.warps = static_cast<std::uint32_t>(warp_time.size());

  // List-schedule warps (in order) onto the concurrent warp slots: a
  // min-heap of slot finish times.
  std::priority_queue<double, std::vector<double>, std::greater<>> slots;
  double makespan = 0.0;
  for (const double wt : warp_time) {
    double start = 0.0;
    if (slots.size() >= dev.concurrent_warps) {
      start = slots.top();
      slots.pop();
    }
    const double finish = start + wt;
    slots.push(finish);
    makespan = std::max(makespan, finish);
  }
  st.device_seconds = makespan + dev.kernel_launch_s;
  return st;
}

double path_divergence(double quantum) {
  return std::min(1.0, quantum / coherence_time);
}

}  // namespace simt
