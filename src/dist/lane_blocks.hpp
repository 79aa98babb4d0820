// How the distributed backend splits an ensemble into lane blocks, its
// unit of work (dist/distributed_backend.cpp): contiguous blocks of at most
// kMaxBlockLanes trajectories, at least kMinBlocksPerWorker per worker,
// each homed on a host so that every worker owns an equal share, ±1
// block. Shared with the Fig. 6 bench, which times a host's share the way
// the hosts run it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dist {

/// Most lanes in one block: one SoA batch group as wide as the batched
/// backends' default.
inline constexpr std::uint64_t kMaxBlockLanes = 32;
/// Fewest blocks per worker: two fill a worker's lease slots, and the rest
/// queue where an idle worker on another host can take them, so a slow or
/// dead host's share moves in pieces.
inline constexpr std::uint64_t kMinBlocksPerWorker = 4;

/// Trajectories [first, first + lanes), homed on host `home`.
struct lane_block {
  std::uint64_t first = 0;
  std::uint64_t lanes = 0;
  std::uint32_t home = 0;
};

/// Split n trajectories into contiguous blocks of near-equal width, and
/// home block u on the host of worker u * workers / blocks.
inline std::vector<lane_block> plan_blocks(std::uint64_t n, unsigned hosts,
                                           unsigned workers_per_host) {
  const std::uint64_t workers =
      static_cast<std::uint64_t>(hosts) * workers_per_host;
  const std::uint64_t count =
      std::min(n, std::max((n + kMaxBlockLanes - 1) / kMaxBlockLanes,
                           kMinBlocksPerWorker * workers));
  std::vector<lane_block> out(count);
  for (std::uint64_t u = 0; u < count; ++u) {
    out[u].first = u * n / count;
    out[u].lanes = (u + 1) * n / count - out[u].first;
    out[u].home =
        static_cast<std::uint32_t>(u * workers / count / workers_per_host);
  }
  return out;
}

}  // namespace dist
