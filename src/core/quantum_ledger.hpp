// The lease book of a quantum-scheduled run on a cluster of hosts (paper
// §IV-B: every host runs a farm with feedback, and trajectories advance one
// quantum at a time). Work is split into units (the distributed backend's
// lane blocks); the ledger decides which worker runs which unit's next
// quantum, and accepts each unit's quanta exactly once.
//
// The ledger owns:
//   - leases: one quantum of one unit, granted to a worker that asked;
//     a unit has at most one lease in flight;
//   - checkpoints: per unit, the number of quanta accepted so far. It is
//     the quantum a lease runs, and the replay point of a host that does
//     not hold the unit there;
//   - exactly-once acceptance: a returned quantum counts only when it is
//     the unit's checkpoint; late duplicates and gap frames are dropped;
//   - deadline re-issue: a worker's oldest lease with no accepted progress
//     for `deadline` goes back to the queue, unowned, and is offered to
//     other hosts first; a lease queued behind it counts its deadline from
//     when the worker could start it;
//   - residency: the host that last ran a unit holds its engines. Workers
//     prefer units resident on their host, lowest checkpoint first, so a
//     host's units move together and the first cuts fill early. A lease
//     that moves a unit names the host it leaves (lease::from), so the
//     caller can tell that host to drop its copy.
//
// serve() matches waiting workers to queued units, lowest checkpoint
// first. A worker takes its host's resident units and FREE units — those
// nobody live holds: unowned after an expiry, or resident on a host that
// went silent (nothing accepted from it for the deadline). Idle workers
// (no lease in flight) are served before busy ones (asking for the lease
// after their running one). A worker with nothing of its own host queued
// steals from a live host only when that host's pace (how long its leases
// take, averaged) is more than twice its own, and only while moving the unit
// is cheap: its checkpoint is at most half the unit's quanta, so the
// replay costs no more than what is left. Steals are served first, so a
// straggler's unit goes to a faster host instead of back to it, and units
// never bounce between hosts of equal pace. Last, an idle worker takes
// back a unit its own host let expire when no other host asked for it.
//
// The ledger reads no clock: every call that depends on time takes `now`,
// so its decisions are deterministic functions of the calls made.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <vector>

namespace cwcsim {

class quantum_ledger {
 public:
  using clock = std::chrono::steady_clock;
  using time_point = clock::time_point;
  static constexpr std::uint32_t no_host = 0xFFFFFFFFu;

  /// Run quantum `quantum` of `unit` on worker `worker` of `host`.
  struct lease {
    std::uint32_t host = 0;
    std::uint32_t worker = 0;
    std::uint32_t unit = 0;
    std::uint64_t quantum = 0;  ///< the unit's checkpoint: the replay point
    bool reissue = false;       ///< re-grants a lease that expired
    /// The host the lease moves the unit away from, which may still hold
    /// its engines; no_host when the unit stays where it was.
    std::uint32_t from = no_host;
  };

  /// `home[u]` is the host unit u is resident on before its first lease,
  /// in [0, hosts). Each host runs `workers_per_host` workers. A unit needs
  /// at most `quanta` quanta. A lease expires after `deadline` without
  /// progress, and a host is silent once nothing of it was accepted for
  /// `deadline`, counted from `start` before its first quantum.
  quantum_ledger(std::vector<std::uint32_t> home, std::uint32_t hosts,
                 std::uint32_t workers_per_host, std::uint64_t quanta,
                 clock::duration deadline, time_point start);

  /// Worker `worker` of `host` asks for a lease. A repeated request
  /// while the first still waits is absorbed.
  void request(std::uint32_t host, std::uint32_t worker);

  /// Grant queued units to waiting workers; returns the grants made.
  std::vector<lease> serve(time_point now);

  /// Quantum `quantum` of `unit` came back from `host`; `finished` means
  /// the unit has nothing left to run. True when it is accepted, false
  /// when it is a duplicate or out of order and must be discarded.
  bool accept(std::uint32_t unit, std::uint64_t quantum, std::uint32_t host,
              bool finished, time_point now);

  /// Re-queue every lease at the head of a worker's queue that has made
  /// no progress for the deadline. Returns the number of leases re-queued.
  std::size_t expire(time_point now);

  std::uint64_t checkpoint(std::uint32_t unit) const {
    return units_.at(unit).checkpoint;
  }
  /// The host holding the unit's engines, or no_host while it is unowned
  /// after an expiry.
  std::uint32_t resident(std::uint32_t unit) const {
    return units_.at(unit).resident;
  }
  std::size_t units() const noexcept { return units_.size(); }
  std::size_t units_done() const noexcept { return done_; }
  bool all_done() const noexcept { return done_ == units_.size(); }
  std::uint64_t grants() const noexcept { return grants_; }
  std::uint64_t reissued() const noexcept { return reissued_; }
  std::uint64_t duplicates() const noexcept { return duplicates_; }

 private:
  static constexpr std::uint32_t none = 0xFFFFFFFFu;

  struct unit_state {
    std::uint64_t checkpoint = 0;
    std::uint32_t resident = no_host;  ///< host holding its engines
    std::uint32_t avoid = no_host;     ///< host whose lease on it expired
    std::uint32_t holder = none;       ///< worker of the lease in flight
    bool done = false;
    bool reissue = false;  ///< its next lease re-grants an expired one
    bool moved = false;    ///< its lease changed host: a replay runs first
    time_point since{};    ///< the in-flight lease's deadline counts from here
  };

  bool queued(const unit_state& s) const noexcept {
    return !s.done && s.holder == none;
  }
  bool silent(std::uint32_t host, time_point now) const;
  /// The queued unit with the lowest (checkpoint, index) that `ok`
  /// accepts, or `none`.
  template <typename Pred>
  std::uint32_t pick(Pred ok) const;
  void end_lease(unit_state& s, std::uint32_t unit, time_point now);

  std::vector<unit_state> units_;
  std::uint32_t workers_per_host_;
  std::uint64_t quanta_;
  clock::duration deadline_;
  /// Per worker (host * workers_per_host + worker): units leased to it,
  /// in grant order — the order the worker runs them.
  std::vector<std::deque<std::uint32_t>> queues_;
  std::vector<char> asking_;          ///< per worker: a request waits
  std::deque<std::uint32_t> waiting_;  ///< workers with a request, FIFO
  std::vector<time_point> heard_;     ///< per host: last accepted quantum
  /// Per host: how long its leases take, a moving average over those
  /// that moved no unit.
  std::vector<clock::duration> pace_;
  std::size_t done_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t reissued_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace cwcsim
