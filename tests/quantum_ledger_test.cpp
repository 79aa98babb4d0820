// Deterministic tests for cwcsim::quantum_ledger: every call gets an
// explicit time point, so lease order, exactly-once acceptance, deadline
// re-issue, stealing and completion are checked without threads or sleeps.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <vector>

#include "core/quantum_ledger.hpp"

namespace {

using cwcsim::quantum_ledger;
using namespace std::chrono_literals;

constexpr auto kDeadline = std::chrono::milliseconds(250);
const quantum_ledger::time_point t0{std::chrono::seconds(1000)};

/// Units 0-1 on host 0, 2-3 on host 1; one worker per host; 8 quanta.
quantum_ledger two_hosts() {
  return quantum_ledger({0, 0, 1, 1}, 2, 1, 8, kDeadline, t0);
}

/// Ask for worker (host, 0)'s lease and serve; the grant it got, if any.
std::optional<quantum_ledger::lease> lease_for(quantum_ledger& l,
                                               std::uint32_t host,
                                               quantum_ledger::time_point now) {
  l.request(host, 0);
  std::optional<quantum_ledger::lease> got;
  for (const auto& g : l.serve(now))
    if (g.host == host) got = g;
  return got;
}

TEST(QuantumLedger, LowestCheckpointFirstAmongResidentUnits) {
  auto l = two_hosts();
  auto a = lease_for(l, 0, t0);
  ASSERT_TRUE(a);
  EXPECT_EQ(a->unit, 0u);  // resident, lowest (checkpoint, index)
  EXPECT_EQ(a->quantum, 0u);
  EXPECT_FALSE(a->reissue);
  EXPECT_EQ(a->from, quantum_ledger::no_host);  // it stays on its host
  ASSERT_TRUE(l.accept(0, 0, 0, false, t0 + 1ms));

  // Unit 0 is now one quantum ahead: unit 1 goes first, then unit 0.
  auto b = lease_for(l, 0, t0 + 1ms);
  ASSERT_TRUE(b);
  EXPECT_EQ(b->unit, 1u);
  EXPECT_EQ(b->quantum, 0u);
  auto c = lease_for(l, 0, t0 + 1ms);  // the busy worker's second slot
  ASSERT_TRUE(c);
  EXPECT_EQ(c->unit, 0u);
  EXPECT_EQ(c->quantum, 1u);  // the checkpoint
  EXPECT_EQ(l.grants(), 3u);
}

TEST(QuantumLedger, OneLeaseInFlightPerUnit) {
  auto l = two_hosts();
  ASSERT_TRUE(lease_for(l, 0, t0));  // unit 0
  ASSERT_TRUE(lease_for(l, 0, t0));  // unit 1
  // Both of host 0's units are out: a busy worker waits rather than
  // taking another host's unit.
  EXPECT_FALSE(lease_for(l, 0, t0));
  // The request keeps waiting and is served once a unit comes back.
  ASSERT_TRUE(l.accept(1, 0, 0, false, t0 + 1ms));
  const auto g = l.serve(t0 + 1ms);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].unit, 1u);
  EXPECT_EQ(g[0].quantum, 1u);
}

TEST(QuantumLedger, AcceptsEachQuantumExactlyOnce) {
  auto l = two_hosts();
  ASSERT_TRUE(lease_for(l, 0, t0));
  EXPECT_TRUE(l.accept(0, 0, 0, false, t0 + 1ms));
  EXPECT_EQ(l.checkpoint(0), 1u);
  // The same quantum again (a retransmit, or a superseded execution).
  EXPECT_FALSE(l.accept(0, 0, 0, false, t0 + 2ms));
  EXPECT_FALSE(l.accept(0, 0, 1, false, t0 + 2ms));
  // A quantum past the checkpoint: a gap frame after a loss.
  EXPECT_FALSE(l.accept(0, 5, 0, false, t0 + 2ms));
  EXPECT_EQ(l.checkpoint(0), 1u);
  EXPECT_EQ(l.duplicates(), 3u);
}

TEST(QuantumLedger, StaleDuplicateAfterReissueIsDiscarded) {
  auto l = quantum_ledger({0, 1}, 2, 1, 8, kDeadline, t0);
  ASSERT_TRUE(lease_for(l, 0, t0));  // unit 0, quantum 0 on host 0
  ASSERT_TRUE(lease_for(l, 1, t0));  // unit 1 on host 1
  ASSERT_TRUE(l.accept(1, 0, 1, true, t0 + 1ms));  // host 1 is done
  EXPECT_EQ(l.expire(t0 + 300ms), 1u);  // host 0 went quiet: unit 0 moves
  auto r = lease_for(l, 1, t0 + 300ms);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->unit, 0u);
  EXPECT_TRUE(r->reissue);
  // The re-issued execution lands first; the straggler's copy is stale.
  EXPECT_TRUE(l.accept(0, 0, 1, false, t0 + 310ms));
  EXPECT_FALSE(l.accept(0, 0, 0, false, t0 + 320ms));
  EXPECT_EQ(l.checkpoint(0), 1u);
  EXPECT_EQ(l.duplicates(), 1u);
}

TEST(QuantumLedger, ReissuesOnlyAfterTheDeadlineToANonOwner) {
  auto l = quantum_ledger({0, 1}, 2, 1, 8, kDeadline, t0);
  ASSERT_TRUE(lease_for(l, 0, t0));  // unit 0
  ASSERT_TRUE(lease_for(l, 1, t0));  // unit 1
  ASSERT_TRUE(l.accept(0, 0, 0, false, t0 + 10ms));
  ASSERT_TRUE(l.accept(1, 0, 1, false, t0 + 10ms));
  auto a = lease_for(l, 0, t0 + 10ms);
  ASSERT_TRUE(a);
  ASSERT_EQ(a->unit, 0u);
  ASSERT_EQ(a->quantum, 1u);
  ASSERT_TRUE(lease_for(l, 1, t0 + 10ms));  // unit 1, quantum 1

  // Just before the deadline nothing moves: host 1, idle again, gets its
  // own unit back, and unit 0 stays with host 0.
  const auto before = t0 + 10ms + kDeadline - 1ms;
  EXPECT_EQ(l.expire(before), 0u);
  ASSERT_TRUE(l.accept(1, 1, 1, false, before));
  auto b = lease_for(l, 1, before);
  ASSERT_TRUE(b);
  EXPECT_EQ(b->unit, 1u);
  EXPECT_EQ(l.reissued(), 0u);

  // Past it, unit 0 goes back to the queue, unowned.
  const auto after = t0 + 10ms + kDeadline + 1ms;
  EXPECT_EQ(l.expire(after), 1u);
  EXPECT_EQ(l.resident(0), quantum_ledger::no_host);
  ASSERT_TRUE(l.accept(1, 2, 1, true, after));  // host 1 has nothing left
  // Both hosts ask, the quiet owner first: the other host gets unit 0,
  // and its replay point is the checkpoint.
  l.request(0, 0);
  l.request(1, 0);
  const auto g = l.serve(after);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].host, 1u);
  EXPECT_EQ(g[0].unit, 0u);
  EXPECT_TRUE(g[0].reissue);
  EXPECT_EQ(g[0].quantum, l.checkpoint(0));
  EXPECT_EQ(g[0].quantum, 1u);
  EXPECT_EQ(l.reissued(), 1u);
  // The quiet owner may still hold unit 0's engines: the lease names it.
  EXPECT_EQ(g[0].from, 0u);
  EXPECT_EQ(l.resident(0), 1u);
}

TEST(QuantumLedger, LateFrameBeforeReissueMakesTheNextLeaseFresh) {
  auto l = quantum_ledger({0, 1}, 2, 1, 8, kDeadline, t0);
  ASSERT_TRUE(lease_for(l, 0, t0));
  EXPECT_EQ(l.expire(t0 + 300ms), 1u);
  // The straggler's frame lands before anyone took the re-issue.
  EXPECT_TRUE(l.accept(0, 0, 0, false, t0 + 301ms));
  ASSERT_TRUE(lease_for(l, 1, t0 + 301ms));  // unit 1, its own
  auto r = lease_for(l, 1, t0 + 301ms);      // then the unowned unit 0
  ASSERT_TRUE(r);
  EXPECT_EQ(r->unit, 0u);
  EXPECT_EQ(r->quantum, 1u);
  EXPECT_FALSE(r->reissue);  // quantum 1 was never leased before
  EXPECT_EQ(l.reissued(), 0u);
  EXPECT_EQ(l.grants(), 3u);
}

TEST(QuantumLedger, OwnerTakesItsExpiredUnitBackWhenAlone) {
  auto l = quantum_ledger({0}, 1, 1, 8, kDeadline, t0);
  ASSERT_TRUE(lease_for(l, 0, t0));  // its frame is lost
  EXPECT_EQ(l.expire(t0 + 300ms), 1u);
  auto r = lease_for(l, 0, t0 + 300ms);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->unit, 0u);
  EXPECT_EQ(r->quantum, 0u);
  EXPECT_TRUE(r->reissue);
  EXPECT_EQ(r->from, quantum_ledger::no_host);  // back where it was
}

TEST(QuantumLedger, LaterLeaseDeadlineCountsFromWhenItCanStart) {
  auto l = two_hosts();
  ASSERT_TRUE(lease_for(l, 0, t0));  // unit 0: running
  ASSERT_TRUE(lease_for(l, 0, t0));  // unit 1: queued behind it
  // The running lease returns late but inside its deadline; the queued
  // one starts then and gets a full deadline of its own.
  ASSERT_TRUE(l.accept(0, 0, 0, false, t0 + 200ms));
  EXPECT_EQ(l.expire(t0 + 400ms), 0u);
  EXPECT_EQ(l.expire(t0 + 451ms), 1u);
}

TEST(QuantumLedger, StealsFromASlowerHostOnlyWithNothingOfItsOwnQueued) {
  auto l = quantum_ledger({0, 0, 0, 1, 1}, 2, 1, 8, kDeadline, t0);
  ASSERT_TRUE(lease_for(l, 0, t0));  // unit 0
  ASSERT_TRUE(lease_for(l, 1, t0));  // unit 3
  ASSERT_TRUE(l.accept(3, 0, 1, false, t0 + 10ms));  // host 1: 10 ms a lease
  ASSERT_TRUE(l.accept(0, 0, 0, false, t0 + 40ms));  // host 0: 40 ms a lease
  // Host 1 runs its own units first, idle or busy ...
  auto a = lease_for(l, 1, t0 + 40ms);
  ASSERT_TRUE(a);
  EXPECT_EQ(a->unit, 4u);
  auto b = lease_for(l, 1, t0 + 40ms);
  ASSERT_TRUE(b);
  EXPECT_EQ(b->unit, 3u);
  // ... and with nothing of its own queued it takes the slower host's
  // lowest unit, even while busy.
  auto c = lease_for(l, 1, t0 + 40ms);
  ASSERT_TRUE(c);
  EXPECT_EQ(c->unit, 1u);
  EXPECT_EQ(c->quantum, 0u);
  EXPECT_FALSE(c->reissue);
  EXPECT_EQ(c->from, 0u);
  // Host 0 still gets its own remaining units.
  auto o = lease_for(l, 0, t0 + 40ms);
  ASSERT_TRUE(o);
  EXPECT_EQ(o->unit, 2u);
}

TEST(QuantumLedger, NoStealFromAHostOfEqualPaceOrWhenMovingCostsMore) {
  auto l = quantum_ledger({0, 1}, 2, 1, 8, kDeadline, t0);
  ASSERT_TRUE(lease_for(l, 0, t0));  // unit 0
  ASSERT_TRUE(lease_for(l, 1, t0));  // unit 1
  ASSERT_TRUE(l.accept(0, 0, 0, false, t0 + 10ms));
  ASSERT_TRUE(l.accept(1, 0, 1, true, t0 + 12ms));  // host 1 is done
  // Host 1 has nothing left, but host 0 keeps pace: no steal.
  EXPECT_FALSE(lease_for(l, 1, t0 + 12ms));
  // Host 0 runs unit 0 on at 10 ms a lease, then slows to 100 ms ones.
  auto t = t0 + 12ms;
  for (std::uint64_t q = 1; q < 7; ++q) {
    const auto g = l.serve(t);
    ASSERT_EQ(g.size(), 0u);  // host 1 gets nothing
    auto a = lease_for(l, 0, t);
    ASSERT_TRUE(a);
    ASSERT_EQ(a->unit, 0u);
    t += q < 5 ? 10ms : 100ms;
    ASSERT_TRUE(l.accept(0, q, 0, false, t));
  }
  // Host 0 now averages more than twice host 1's pace, but unit 0 is
  // seven of eight quanta done: a move would replay more than it has
  // left, so it stays.
  EXPECT_TRUE(l.serve(t).empty());
  auto b = lease_for(l, 0, t);
  ASSERT_TRUE(b);
  EXPECT_EQ(b->unit, 0u);
}

TEST(QuantumLedger, AReplayingLeaseDoesNotSetItsHostsPace) {
  // Hosts 1 and 2 run 10 ms leases, host 0 runs 40 ms ones.
  auto l = quantum_ledger({0, 1, 2}, 3, 1, 8, kDeadline, t0);
  ASSERT_TRUE(lease_for(l, 0, t0));  // unit 0
  ASSERT_TRUE(lease_for(l, 1, t0));  // unit 1
  ASSERT_TRUE(lease_for(l, 2, t0));  // unit 2
  ASSERT_TRUE(l.accept(1, 0, 1, false, t0 + 10ms));
  ASSERT_TRUE(l.accept(2, 0, 2, false, t0 + 10ms));
  ASSERT_TRUE(l.accept(0, 0, 0, false, t0 + 40ms));
  ASSERT_TRUE(lease_for(l, 1, t0 + 40ms));  // unit 1
  ASSERT_TRUE(lease_for(l, 2, t0 + 40ms));  // unit 2
  ASSERT_TRUE(l.accept(1, 1, 1, true, t0 + 50ms));
  ASSERT_TRUE(l.accept(2, 1, 2, true, t0 + 50ms));  // both done in 10 ms
  // Host 1 steals unit 0 from slow host 0; the moved lease replays
  // quantum 0 first and takes 40 ms.
  auto s = lease_for(l, 1, t0 + 50ms);
  ASSERT_TRUE(s);
  ASSERT_EQ(s->unit, 0u);
  ASSERT_TRUE(l.accept(0, 1, 1, false, t0 + 90ms));
  // Host 1 still counts as a 10 ms host: idle host 2 does not take unit 0
  // from it.
  EXPECT_FALSE(lease_for(l, 2, t0 + 90ms));
}

TEST(QuantumLedger, ResidentHostWinsItsUnitOverAnIdleThief) {
  auto l = quantum_ledger({0, 1}, 2, 1, 8, kDeadline, t0);
  ASSERT_TRUE(lease_for(l, 0, t0));  // unit 0
  ASSERT_TRUE(l.accept(0, 0, 0, false, t0 + 1ms));
  ASSERT_TRUE(lease_for(l, 1, t0 + 1ms));  // unit 1
  ASSERT_TRUE(l.accept(1, 0, 1, true, t0 + 2ms));  // host 1 is done
  // Host 1 waits idle before host 0 asks; unit 0 is queued on host 0.
  l.request(1, 0);
  l.request(0, 0);
  const auto g = l.serve(t0 + 3ms);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].host, 0u);
  EXPECT_EQ(g[0].unit, 0u);
}

TEST(QuantumLedger, StealsAFarAlongUnitOnlyFromASilentHost) {
  // Four quanta per unit; host 0 runs three of unit 0's.
  auto l = quantum_ledger({0, 1}, 2, 1, 4, kDeadline, t0);
  for (std::uint64_t q = 0; q < 3; ++q) {
    ASSERT_TRUE(lease_for(l, 0, t0));
    ASSERT_TRUE(l.accept(0, q, 0, false, t0));
  }
  ASSERT_TRUE(lease_for(l, 1, t0));
  ASSERT_TRUE(l.accept(1, 0, 1, true, t0));  // host 1 has nothing left
  // Unit 0 is 3/4 done: moving it would replay more than it has left,
  // so idle host 1 leaves it to host 0 while host 0 is heard from.
  EXPECT_FALSE(lease_for(l, 1, t0 + 100ms));
  // Once host 0 has been silent past the deadline, it moves.
  auto s = l.serve(t0 + kDeadline + 1ms);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].host, 1u);
  EXPECT_EQ(s[0].unit, 0u);
  EXPECT_EQ(s[0].quantum, 3u);
}

TEST(QuantumLedger, SilentHostsUnitsAreFreeForBusyWorkers) {
  // Host 0 never shows up. Until the deadline its units wait for it; then
  // busy host 1 takes them, lowest checkpoint first, ahead of its own.
  auto l = quantum_ledger({0, 1, 1}, 2, 1, 8, kDeadline, t0);
  ASSERT_TRUE(lease_for(l, 1, t0));  // unit 1
  ASSERT_TRUE(l.accept(1, 0, 1, false, t0 + 1ms));
  auto a = lease_for(l, 1, t0 + 1ms);  // idle: its own unit 2
  ASSERT_TRUE(a);
  EXPECT_EQ(a->unit, 2u);
  auto b = lease_for(l, 1, t0 + 1ms);  // busy: its own unit 1
  ASSERT_TRUE(b);
  EXPECT_EQ(b->unit, 1u);
  ASSERT_TRUE(l.accept(2, 0, 1, false, t0 + kDeadline + 1ms));
  auto c = lease_for(l, 1, t0 + kDeadline + 1ms);  // busy, host 0 silent
  ASSERT_TRUE(c);
  EXPECT_EQ(c->unit, 0u);
  EXPECT_EQ(c->quantum, 0u);
  EXPECT_FALSE(c->reissue);  // never leased before: a move, not a re-issue
  EXPECT_EQ(c->from, 0u);
}

TEST(QuantumLedger, RepeatedRequestsAreAbsorbed) {
  auto l = two_hosts();
  l.request(0, 0);
  l.request(0, 0);
  l.request(0, 0);
  EXPECT_EQ(l.serve(t0).size(), 1u);
  EXPECT_EQ(l.grants(), 1u);
}

TEST(QuantumLedger, CountsCompletions) {
  auto l = quantum_ledger({0, 0, 0}, 1, 2, 2, kDeadline, t0);
  EXPECT_EQ(l.units(), 3u);
  EXPECT_FALSE(l.all_done());
  std::uint64_t accepted = 0;
  for (int round = 0; round < 10 && !l.all_done(); ++round) {
    l.request(0, 0);
    l.request(0, 1);
    for (const auto& g : l.serve(t0)) {
      const bool last = g.quantum + 1 == 2 || g.unit == 2;  // unit 2: 1 quantum
      accepted += l.accept(g.unit, g.quantum, g.host, last, t0) ? 1 : 0;
    }
  }
  EXPECT_TRUE(l.all_done());
  EXPECT_EQ(l.units_done(), 3u);
  EXPECT_EQ(accepted, 5u);  // 2 + 2 + 1 quanta
  EXPECT_EQ(l.grants(), accepted);
  EXPECT_EQ(l.reissued(), 0u);
  EXPECT_EQ(l.duplicates(), 0u);
  // A done unit accepts nothing more and is never leased again.
  EXPECT_FALSE(l.accept(2, 1, 0, true, t0));
  l.request(0, 0);
  EXPECT_TRUE(l.serve(t0).empty());
}

}  // namespace
