#include "svc_load.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "replay.hpp"

namespace perfbench {

session_record svc_session(svc::run_server& server, const cwc::model& model,
                           const campaign& c, std::size_t tenant,
                           const session_hooks& hooks) {
  session_record rec;
  rec.tenant = tenant;
  tracer* const t = hooks.spans;
  const auto root = t != nullptr ? t->begin("svc.session", tracer::kNoParent,
                                            hooks.request)
                                 : tracer::kNoParent;
  const auto t0 = clock::now();
  try {
    const auto open_span =
        t != nullptr ? t->begin("svc.open", root, hooks.request) : 0;
    auto s = cwcsim::run_builder()
                 .model(model)
                 .config(c.cfg)
                 .backend(cwcsim::service{&server})
                 .open();
    if (t != nullptr) t->end(open_span);
    std::int64_t wait_span = tracer::kNoParent;
    double first = 0.0;
    bool windowed = false;
    // Windows arrive serialized on the session thread, which wait() joins.
    s.on_window([&](const cwcsim::window_summary& w) {
      if (!windowed) first = seconds_since(t0);
      windowed = true;
      if (t != nullptr) t->end(t->begin("svc.on_window", wait_span, w.first_sample));
    });
    if (t != nullptr) wait_span = t->begin("svc.wait", root, hooks.request);
    const auto rep = s.wait();
    if (t != nullptr) t->end(wait_span);
    rec.done = clock::now();
    rec.ok = !rep.stopped && windowed &&
             rep.result.completions.size() == c.cfg.num_trajectories;
    if (rec.ok) {
      rec.latency = seconds_between(t0, rec.done);
      rec.first = first;
      rec.digest = window_digest(rep.result.windows);
    }
    if (rep.network) {
      rec.bytes = rep.network->bytes;
      rec.messages = rep.network->messages;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: svc session: %s\n", e.what());
    rec.done = clock::now();
  }
  if (t != nullptr) t->end(root);
  return rec;
}

bool repeats_previous(const workload& w, std::size_t t) {
  if (t == 0) return false;
  const campaign& a = w.tenants[t - 1];
  const campaign& b = w.tenants[t];
  return a.kind == b.kind && a.cfg.seed == b.cfg.seed &&
         a.cfg.num_trajectories == b.cfg.num_trajectories && a.cfg.t_end == b.cfg.t_end;
}

std::unique_ptr<svc::run_server> start_server(const workload& w) {
  svc::svc_config sc;
  sc.pool_workers = kWorkers;
  auto server = std::make_unique<svc::run_server>(sc);
  std::vector<campaign::model_kind> warmed;
  for (const campaign& c : w.tenants) {
    if (std::find(warmed.begin(), warmed.end(), c.kind) != warmed.end()) continue;
    warmed.push_back(c.kind);
    campaign tiny = c;
    tiny.cfg.num_trajectories = 1;
    tiny.cfg.t_end = c.cfg.sample_period;
    const auto rec = svc_session(*server, build_model(c.kind), tiny, 0);
    if (!rec.ok) throw std::runtime_error("svc cache-fill session failed");
  }
  return server;
}

std::vector<session_record> svc_closed_loop(svc::run_server& server,
                                            const workload& w, double seconds,
                                            std::size_t per_client,
                                            clock::time_point& start,
                                            tracer* spans, std::size_t rss_samples,
                                            std::vector<double>* rss) {
  const std::size_t clients = w.tenants.size();
  std::vector<std::vector<session_record>> records(clients);
  std::vector<cwc::model> models;
  for (const campaign& c : w.tenants) models.push_back(build_model(c.kind));
  start = clock::now();
  const auto deadline = start + std::chrono::duration_cast<clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::atomic<std::size_t> running{clients};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t)
    threads.emplace_back([&, t] {
      while (clock::now() < deadline && records[t].size() < per_client) {
        const session_hooks hooks{spans, t * 1000000 + records[t].size()};
        records[t].push_back(svc_session(server, models[t], w.tenants[t], t, hooks));
      }
      --running;
    });
  if (rss != nullptr) {
    // No malloc_trim here: it would stall the clients' allocations.
    restart_peak_rss();
    for (std::size_t k = 1; k <= rss_samples && running > 0; ++k) {
      const auto until = start + (deadline - start) * k / rss_samples;
      while (clock::now() < until && running > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      rss->push_back(peak_rss_mb());
      restart_peak_rss();
    }
  }
  for (auto& th : threads) th.join();
  std::vector<session_record> all;
  for (auto& v : records) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void check_svc(const workload& w, const std::vector<session_record>& sessions,
               const svc::server_stats& st, run_result& r) {
  std::vector<std::uint64_t> ref;
  for (std::size_t t = 0; t < w.tenants.size(); ++t) {
    const campaign& c = w.tenants[t];
    ref.push_back(repeats_previous(w, t) ? ref.back()
                                         : reference_digest(build_model(c.kind), c.cfg));
  }
  for (std::size_t t = 0; t < ref.size(); ++t)
    std::printf("digest %s replay.tenant%zu: %016" PRIx64 "\n", w.name.c_str(), t,
                ref[t]);
  for (const auto& s : sessions) {
    const std::string what = "svc session of tenant " + std::to_string(s.tenant);
    if (!s.ok) {
      r.op(false, what + ": failed");
      continue;
    }
    r.op(s.digest == ref[s.tenant], what + ": digest differs from the replay");
  }
  r.op(st.quanta_executed == st.quanta_accepted + st.quanta_discarded,
       "svc ledger: executed != accepted + discarded");
}

}  // namespace perfbench
