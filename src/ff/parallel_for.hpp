// The worker pool every lane round runs on (FastFlow's ParallelFor): a
// persistent pool of threads that, together with the calling thread, runs
// body(i) over an index range, handing out chunks of `grain` indices from a
// shared counter as each participant becomes free.
//
// An exception thrown by any participant of a job — a body on a pool
// thread or on the calling thread, or the caller's `meanwhile` work — is
// kept (the first one wins), no further chunks are handed out, and it is
// rethrown on the calling thread once no chunk is running. The pool stays
// usable afterwards.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ff {

class parallel_for {
 public:
  /// A pool of `nworkers` threads (>=1). The calling thread also works, so
  /// nworkers counts total parallelism.
  explicit parallel_for(unsigned nworkers);
  ~parallel_for();

  parallel_for(const parallel_for&) = delete;
  parallel_for& operator=(const parallel_for&) = delete;

  unsigned workers() const noexcept { return nworkers_; }

  /// Execute body(i) for every i in [begin, end). `grain` is the dynamic
  /// chunk size (0 = auto: range / (8 * workers), at least 1). When given,
  /// `meanwhile` runs on the calling thread once the job's chunks are
  /// published to the pool, before the caller helps with the rest.
  void for_each(std::int64_t begin, std::int64_t end, std::int64_t grain,
                const std::function<void(std::int64_t)>& body,
                const std::function<void()>& meanwhile = {});

 private:
  struct job {
    std::int64_t end = 0;
    std::int64_t grain = 1;
    const std::function<void(std::int64_t)>* body = nullptr;
    std::atomic<std::int64_t> cursor{0};
    std::atomic<unsigned> running{0};
    std::mutex error_mu;
    std::exception_ptr error;  ///< the first participant's exception

    /// Keep `e` unless an earlier one is kept, and hand out no more chunks.
    void fail(std::exception_ptr e);
  };

  void worker_main();
  static void work_on(job& j) noexcept;

  unsigned nworkers_;
  std::vector<std::thread> pool_;

  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  job* current_ = nullptr;
  std::uint64_t epoch_ = 0;
  bool stopping_ = false;
};

}  // namespace ff
