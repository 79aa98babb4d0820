// Seeded chaos harness for the run server: one value that names every
// fault the resilience layer must absorb, so a test matrix (or a soak, or
// a bench) can turn the same screws reproducibly.
//
// Two fault families:
//   - transport: drop / duplicate / delay-jitter on the shared uplink
//     ingress and on every per-session downlink, realised through the
//     existing dist::net_channel seeded fault streams (net_params). Each
//     downlink derives its own stream from (seed, conn_id), so the fault
//     pattern is deterministic per connection and independent across
//     tenants.
//   - engine: throw from inside quantum execution the first time a lane
//     block reaches quantum index `engine_throw_at_quantum` — the
//     in-process stand-in for a worker crash. Fires exactly once per
//     server (the injected fault is transient, so the recovery path's
//     checkpoint-replay must succeed on retry).
//
// All knobs default to "off": a default chaos_params leaves every code
// path bit-exact with the fault-free server.
#pragma once

#include <cstdint>

#include "dist/net_params.hpp"

namespace svc {

struct chaos_params {
  /// Sentinel: no engine-throw injection.
  static constexpr std::uint64_t no_quantum = ~std::uint64_t{0};

  // ---- transport faults (dist/net_channel seeded streams) ----
  double ingress_drop_prob = 0.0;
  double ingress_dup_prob = 0.0;
  double ingress_delay_s = 0.0;  ///< uniform jitter bound, FIFO-preserving
  double downlink_drop_prob = 0.0;
  double downlink_dup_prob = 0.0;
  double downlink_delay_s = 0.0;
  std::uint64_t seed = 0xC7A05C7A05ULL;  ///< fault-stream seed

  // ---- engine fault ----
  /// Throw (once, server-wide) when a lane block first executes this
  /// quantum index. no_quantum = off.
  std::uint64_t engine_throw_at_quantum = no_quantum;

  /// The server's shared-ingress link model: an instant link plus this
  /// harness's uplink faults.
  dist::net_params ingress_params() const noexcept {
    dist::net_params p;
    p.drop_prob = ingress_drop_prob;
    p.dup_prob = ingress_dup_prob;
    p.jitter_s = ingress_delay_s;
    p.drop_seed = seed;
    return p;
  }

  /// One connection downlink's link model; the fault stream is derived from
  /// (seed, conn_id) so each tenant sees its own deterministic pattern.
  dist::net_params downlink_params(std::uint64_t conn_id) const noexcept {
    dist::net_params p;
    p.drop_prob = downlink_drop_prob;
    p.dup_prob = downlink_dup_prob;
    p.jitter_s = downlink_delay_s;
    p.drop_seed = seed ^ (conn_id * 0x9e3779b97f4a7c15ULL);
    return p;
  }
};

}  // namespace svc
