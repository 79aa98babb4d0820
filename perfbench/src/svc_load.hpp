// The svc workload's load generator: a closed loop of client threads, one
// connection each, sending their tenant's sessions back to back through
// the public service backend. Shared by the timed and the traced run.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "measure.hpp"
#include "svc/svc.hpp"
#include "workloads.hpp"

namespace perfbench {

struct session_record {
  std::size_t tenant = 0;
  bool ok = false;
  /// open() to report; +inf for a failed session, so it misses every
  /// latency limit in the percentiles.
  double latency = std::numeric_limits<double>::infinity();
  double first = std::numeric_limits<double>::infinity();  ///< to 1st window
  clock::time_point done{};
  std::uint64_t digest = 0;
  double bytes = 0.0;          ///< downlink bytes (run_report::network)
  std::uint64_t messages = 0;  ///< downlink frames
};

/// Optional span hooks of a traced session, called on the session's
/// threads: around open() and wait(), and on every window.
struct session_hooks {
  tracer* spans = nullptr;
  std::uint64_t request = 0;  ///< session id of the spans
};

/// One blocking session of campaign `c` on `server`, timed from open().
session_record svc_session(svc::run_server& server, const cwc::model& model,
                           const campaign& c, std::size_t tenant,
                           const session_hooks& hooks = {});

/// True when tenant `t` runs the same campaign as tenant `t - 1`, so the
/// two share one replay.
bool repeats_previous(const workload& w, std::size_t t);

/// Start a server with kWorkers pool threads and fill its model cache with
/// one tiny session per distinct tenant model.
std::unique_ptr<svc::run_server> start_server(const workload& w);

/// Run every tenant of `w` on its own client thread until `seconds`
/// elapse or each client finished `per_client` sessions. `start` receives
/// the loop's start time. With `rss`, the calling thread also samples the
/// peak resident set `rss_samples` times, over equal parts of the loop.
std::vector<session_record> svc_closed_loop(svc::run_server& server,
                                            const workload& w, double seconds,
                                            std::size_t per_client,
                                            clock::time_point& start,
                                            tracer* spans = nullptr,
                                            std::size_t rss_samples = 0,
                                            std::vector<double>* rss = nullptr);

/// The correctness gate: every session complete with its tenant's replay
/// digest, and the server ledger balanced. Prints the replay digests.
void check_svc(const workload& w, const std::vector<session_record>& sessions,
               const svc::server_stats& st, run_result& r);

}  // namespace perfbench
