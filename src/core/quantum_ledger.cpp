#include "core/quantum_ledger.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cwcsim {

quantum_ledger::quantum_ledger(std::vector<std::uint32_t> home,
                               std::uint32_t hosts,
                               std::uint32_t workers_per_host,
                               std::uint64_t quanta,
                               clock::duration deadline, time_point start)
    : units_(home.size()),
      workers_per_host_(workers_per_host),
      quanta_(quanta),
      deadline_(deadline),
      queues_(static_cast<std::size_t>(hosts) * workers_per_host),
      asking_(queues_.size(), 0),
      heard_(hosts, start),
      pace_(hosts, clock::duration::zero()) {
  util::expects(hosts > 0 && workers_per_host > 0,
                "a ledger needs at least one worker");
  for (std::size_t u = 0; u < home.size(); ++u) {
    util::expects(home[u] < hosts, "unit homed on an unknown host");
    units_[u].resident = home[u];
  }
}

void quantum_ledger::request(std::uint32_t host, std::uint32_t worker) {
  util::expects(worker < workers_per_host_ &&
                    static_cast<std::size_t>(host) * workers_per_host_ <
                        queues_.size(),
                "request from an unknown worker");
  const std::uint32_t k = host * workers_per_host_ + worker;
  if (asking_[k] != 0) return;
  asking_[k] = 1;
  waiting_.push_back(k);
}

bool quantum_ledger::silent(std::uint32_t host, time_point now) const {
  return now - heard_[host] > deadline_;
}

template <typename Pred>
std::uint32_t quantum_ledger::pick(Pred ok) const {
  std::uint32_t best = none;
  for (std::uint32_t u = 0; u < units_.size(); ++u) {
    const unit_state& s = units_[u];
    if (!queued(s) || !ok(s)) continue;
    if (best == none || s.checkpoint < units_[best].checkpoint) best = u;
  }
  return best;
}

std::vector<quantum_ledger::lease> quantum_ledger::serve(time_point now) {
  std::vector<lease> out;
  // One pass over the waiting workers: those `idle` (or busy) ask
  // `choose` for a unit, and a worker that gets one leaves the queue.
  const auto pass = [&](bool idle, const auto& choose) {
    for (auto it = waiting_.begin(); it != waiting_.end();) {
      const std::uint32_t k = *it;
      const std::uint32_t host = k / workers_per_host_;
      const std::uint32_t u =
          queues_[k].empty() == idle ? choose(host) : none;
      if (u == none) {
        ++it;
        continue;
      }
      unit_state& s = units_[u];
      // After an expiry the unit is unowned, but the host whose lease
      // expired may still hold (or be running) it.
      const std::uint32_t held = s.resident != no_host ? s.resident : s.avoid;
      out.push_back({host, k % workers_per_host_, u, s.checkpoint, s.reissue,
                     held != host ? held : no_host});
      ++grants_;
      if (s.reissue) ++reissued_;
      s.reissue = false;
      s.moved = s.resident != host && s.checkpoint > 0;
      s.holder = k;
      s.resident = host;
      s.avoid = no_host;
      s.since = now;
      queues_[k].push_back(u);
      asking_[k] = 0;
      it = waiting_.erase(it);
    }
  };
  // Nobody live holds a unit that is unowned (its lease expired) or
  // resident on a host that went silent; the host whose lease expired
  // lets other hosts take it first.
  const auto free = [&](const unit_state& s, std::uint32_t h) {
    return s.avoid != h &&
           (s.resident == no_host || silent(s.resident, now));
  };
  const auto own_or_free = [&](std::uint32_t h) {
    return pick([&](const unit_state& s) {
      return s.resident == h || free(s, h);
    });
  };
  // With nothing of its own queued, a worker takes a unit from a live host
  // at least twice as slow while moving it is cheap: the replay (its
  // checkpoint) costs no more than what is left of it.
  const auto steal = [&](std::uint32_t h) {
    if (pick([h](const unit_state& s) { return s.resident == h; }) != none)
      return none;
    return pick([&](const unit_state& s) {
      return s.resident != no_host && s.resident != h && s.avoid != h &&
             2 * s.checkpoint <= quanta_ && pace_[h].count() > 0 &&
             pace_[s.resident] > 2 * pace_[h];
    });
  };
  pass(true, steal);
  pass(false, steal);
  pass(true, own_or_free);
  pass(false, own_or_free);
  // Last, an idle worker takes back the unit its own host let expire:
  // no other host asked for it.
  pass(true, [&](std::uint32_t h) {
    return pick([&](const unit_state& s) {
      return s.avoid == h && s.resident == no_host;
    });
  });
  return out;
}

void quantum_ledger::end_lease(unit_state& s, std::uint32_t unit,
                               time_point now) {
  auto& q = queues_[s.holder];
  const bool head = q.front() == unit;
  q.erase(std::find(q.begin(), q.end(), unit));
  // The worker starts its next lease now: its deadline counts from here.
  if (head && !q.empty())
    units_[q.front()].since = std::max(units_[q.front()].since, now);
  s.holder = none;
}

bool quantum_ledger::accept(std::uint32_t unit, std::uint64_t quantum,
                            std::uint32_t host, bool finished,
                            time_point now) {
  util::expects(unit < units_.size() && host < heard_.size(),
                "quantum of an unknown unit or host");
  unit_state& s = units_[unit];
  if (s.done || quantum != s.checkpoint) {
    ++duplicates_;
    return false;
  }
  ++s.checkpoint;
  s.reissue = false;  // a re-issue owed for this quantum is moot now
  heard_[host] = now;
  if (finished) {
    s.done = true;
    ++done_;
  }
  // A lease covers the unit's checkpoint quantum, so accepting it ends the
  // lease, whoever ran it. How long it took feeds its holder's pace (a
  // moving average over about four leases, so one descheduled lease does
  // not make a host look slow), unless it moved the unit and so included
  // a replay.
  if (s.holder != none) {
    if (s.holder / workers_per_host_ == host && !s.moved) {
      const clock::duration took = now - s.since;
      pace_[host] = pace_[host].count() == 0 ? took
                                             : (3 * pace_[host] + took) / 4;
    }
    end_lease(s, unit, now);
  }
  return true;
}

std::size_t quantum_ledger::expire(time_point now) {
  std::size_t n = 0;
  for (std::uint32_t k = 0; k < queues_.size(); ++k) {
    auto& q = queues_[k];
    // A lease behind an expired one never started: it keeps its grant
    // time, so a dead worker's whole queue goes in one call.
    while (!q.empty() && now - units_[q.front()].since > deadline_) {
      unit_state& s = units_[q.front()];
      q.pop_front();
      s.holder = none;
      s.resident = no_host;
      s.avoid = k / workers_per_host_;
      s.reissue = true;
      ++n;
    }
  }
  return n;
}

}  // namespace cwcsim
