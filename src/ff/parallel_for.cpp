#include "ff/parallel_for.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ff {

parallel_for::parallel_for(unsigned nworkers) : nworkers_(std::max(1u, nworkers)) {
  // The calling thread participates, so spawn one fewer.
  pool_.reserve(nworkers_ - 1);
  for (unsigned i = 1; i < nworkers_; ++i) {
    pool_.emplace_back([this] { worker_main(); });
  }
}

parallel_for::~parallel_for() {
  {
    std::lock_guard lk(mutex_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : pool_)
    if (t.joinable()) t.join();
}

void parallel_for::worker_main() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    job* j = nullptr;
    {
      std::unique_lock lk(mutex_);
      cv_work_.wait(lk, [&] { return stopping_ || epoch_ != seen_epoch; });
      if (stopping_) return;
      seen_epoch = epoch_;
      j = current_;
    }
    if (j != nullptr) {
      work_on(*j);
      if (j->running.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Take the mutex briefly so the notify cannot slip between the
        // waiter's predicate check and its sleep (lost-wakeup guard).
        { std::lock_guard done_lk(mutex_); }
        cv_done_.notify_all();
      }
    }
  }
}

void parallel_for::job::fail(std::exception_ptr e) {
  {
    const std::lock_guard lk(error_mu);
    if (!error) error = std::move(e);
  }
  // Every later cursor claim lands past the end: no chunk starts after this.
  cursor.store(end, std::memory_order_relaxed);
}

void parallel_for::work_on(job& j) noexcept {
  for (;;) {
    const std::int64_t lo = j.cursor.fetch_add(j.grain, std::memory_order_relaxed);
    if (lo >= j.end) return;
    const std::int64_t hi = std::min(lo + j.grain, j.end);
    try {
      for (std::int64_t i = lo; i < hi; ++i) (*j.body)(i);
    } catch (...) {
      j.fail(std::current_exception());
      return;
    }
  }
}

void parallel_for::for_each(std::int64_t begin, std::int64_t end, std::int64_t grain,
                            const std::function<void(std::int64_t)>& body,
                            const std::function<void()>& meanwhile) {
  util::expects(begin <= end, "for_each requires begin <= end");
  if (begin == end) {
    if (meanwhile) meanwhile();
    return;
  }
  if (grain <= 0) {
    grain = std::max<std::int64_t>(1, (end - begin) / (8 * nworkers_));
  }

  job j;
  j.end = end;
  j.grain = grain;
  j.body = &body;
  j.cursor.store(begin, std::memory_order_relaxed);
  j.running.store(static_cast<unsigned>(pool_.size()), std::memory_order_relaxed);

  {
    std::lock_guard lk(mutex_);
    current_ = &j;
    ++epoch_;
  }
  cv_work_.notify_all();

  if (meanwhile) {
    try {
      meanwhile();
    } catch (...) {
      j.fail(std::current_exception());
    }
  }
  work_on(j);  // calling thread participates

  {
    // `j` lives on this stack frame: wait for every worker to leave it,
    // thrown or not, before returning or rethrowing.
    std::unique_lock lk(mutex_);
    cv_done_.wait(lk, [&] { return j.running.load(std::memory_order_acquire) == 0; });
    current_ = nullptr;
  }
  if (j.error) std::rethrow_exception(j.error);
}

}  // namespace ff
