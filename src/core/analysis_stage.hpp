// The analysis pipeline of the paper's Fig. 2 — alignment -> sliding
// windows -> farm of statistical engines -> gather — as one stage that
// every backend shares: the multicore and gpu drivers (fed by lane
// rounds), the distributed master and the run server's sessions.
//
// ingest() aligns samples on the calling thread (cut_assembler). Each cut
// it releases becomes one summary job; `workers` threads owned by the stage
// run stats::summarize_cut on those jobs and store each summary at its
// cut's index. A window goes to the sink as soon as every one of its cuts
// has a summary, strictly in first_sample order, with the cuts
// stats::sliding_window_builder would give it (trailing partial window
// included). So windows are bit-identical on every worker count, a cut is
// summarised once even when windows overlap, and a summary is dropped once
// no later window needs it.
//
// Backpressure: while more than window_size cuts wait, ingest() summarises
// one itself. That bounds the raw cuts held and adds a summariser whenever
// the workers fall behind. With workers = 0 every summary runs inline in
// ingest() — the run server's mode, whose pool already provides the
// parallelism.
//
// ingest() and finish() are called from one thread at a time. Windows
// reach the sink from whichever thread completes them, one at a time. A
// failing summary or sink call stops the stage: later cuts are dropped, so
// whatever feeds the stage keeps draining, and finish() rethrows the error.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/alignment.hpp"
#include "core/events.hpp"

namespace cwcsim {

class analysis_stage {
 public:
  /// `cfg` and `sink` must outlive the stage.
  analysis_stage(const sim_config& cfg, std::size_t num_observables,
                 event_sink& sink, unsigned workers)
      : cfg_(&cfg),
        sink_(&sink),
        assembler_(cfg, num_observables),
        max_waiting_(workers == 0 ? 0 : cfg.window_size) {
    util::expects(cfg.window_slide > 0 && cfg.window_slide <= cfg.window_size,
                  "window slide must be in [1, window_size]");
    try {
      for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this] { work(); });
    } catch (...) {
      close_and_join(true);
      throw;
    }
  }

  /// Joins the workers on every path; cuts still queued are dropped.
  ~analysis_stage() { close_and_join(true); }
  analysis_stage(const analysis_stage&) = delete;
  analysis_stage& operator=(const analysis_stage&) = delete;

  /// Feed one sample of `trajectory` (cut_assembler's checks apply).
  void ingest(std::uint64_t trajectory, const cwc::trajectory_sample& s) {
    assembler_.ingest(trajectory, s, [this](stats::trajectory_cut&& c) {
      push(std::move(c));
    });
  }

  /// Queue one released cut; cuts arrive consecutively in sample-index
  /// order. ingest() feeds every cut it releases through here.
  void push(stats::trajectory_cut&& cut) {
    std::unique_lock<std::mutex> lk(mu_);
    if (error_) return;  // the stage failed; finish() reports it
    if (released_++ == 0) base_ = cut.sample_index;
    util::expects(cut.sample_index == base_ + summaries_.size(),
                  "cuts must arrive consecutively");
    summaries_.emplace_back();
    jobs_.push_back(std::move(cut));
    work_cv_.notify_one();
    // Backpressure: the analysis fell behind, so this thread summarises too.
    while (jobs_.size() > max_waiting_) run_one(lk);
  }

  /// Summarise what is still queued (the caller helps the workers), join
  /// the workers, rethrow the first summary or sink error and emit the
  /// trailing partial window. On a complete (non-stopped) run, a partially
  /// filled cut left behind means a trajectory was lost upstream: that
  /// throws util::postcondition_error instead of silently disappearing.
  void finish() {
    {
      std::unique_lock<std::mutex> lk(mu_);
      while (!jobs_.empty() && !error_) run_one(lk);
    }
    close_and_join(false);  // from here on this thread is alone
    if (error_) std::rethrow_exception(error_);
    if (!summaries_.empty())
      sink_->window(take_window(summaries_.size(), summaries_.size()));
    if (!sink_->stop_requested())
      util::ensures(assembler_.drained(),
                    "alignment buffer not drained at EOS");
  }

  /// Cut summaries computed so far.
  std::uint64_t summarized() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return summarized_;
  }

 private:
  void work() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      work_cv_.wait(lk, [this] { return closed_ || !jobs_.empty(); });
      if (jobs_.empty()) return;
      run_one(lk);
    }
  }

  /// Summarise the oldest queued cut; called and returns with `lk` held.
  void run_one(std::unique_lock<std::mutex>& lk) {
    const stats::trajectory_cut cut = std::move(jobs_.front());
    jobs_.pop_front();
    lk.unlock();
    try {
      auto s = stats::summarize_cut(cut, cfg_->kmeans_k, cfg_->seed);
      lk.lock();
      summaries_[cut.sample_index - base_] = std::move(s);
      ++summarized_;
      while (ready_ < summaries_.size() && summaries_[ready_]) ++ready_;
      lk.unlock();
      emit_ready();
      lk.lock();
    } catch (...) {
      // A missing summary blocks every later window: stop the stage.
      if (!lk.owns_lock()) lk.lock();
      if (!error_) error_ = std::current_exception();
      jobs_.clear();
      closed_ = true;
      work_cv_.notify_all();
    }
  }

  /// Hand every complete window to the sink, in order. A thread that finds
  /// another emitting waits, then re-checks: no window is left behind.
  void emit_ready() {
    const std::lock_guard<std::mutex> emitting(emit_mu_);
    for (;;) {
      std::unique_lock<std::mutex> lk(mu_);
      if (error_ || ready_ < cfg_->window_size) return;
      auto w = take_window(cfg_->window_size, cfg_->window_slide);
      lk.unlock();
      sink_->window(std::move(w));
    }
  }

  /// The window of the first `cuts` summaries; the first `drop` of them no
  /// later window needs, so they are moved out and forgotten.
  window_summary take_window(std::size_t cuts, std::size_t drop) {
    window_summary w{base_, {}};
    w.cuts.reserve(cuts);
    for (std::size_t i = 0; i < cuts; ++i)
      w.cuts.push_back(i < drop ? std::move(*summaries_[i]) : *summaries_[i]);
    summaries_.erase(summaries_.begin(),
                     summaries_.begin() + static_cast<std::ptrdiff_t>(drop));
    base_ += drop;
    ready_ -= drop;
    return w;
  }

  void close_and_join(bool drop_queued) {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      if (drop_queued) jobs_.clear();
      closed_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_)
      if (t.joinable()) t.join();
  }

  const sim_config* cfg_;
  event_sink* sink_;
  cut_assembler assembler_;  // the ingesting thread's alone
  std::size_t max_waiting_;  // queued cuts before ingest() helps

  std::mutex emit_mu_;     // held while windows go to the sink
  mutable std::mutex mu_;  // guards everything below
  std::condition_variable work_cv_;
  std::deque<stats::trajectory_cut> jobs_;
  // summaries_[i] belongs to cut base_ + i, the first cut a window still
  // needs; the first ready_ of them are present.
  std::deque<std::optional<stats::cut_summary>> summaries_;
  std::uint64_t base_ = 0;
  std::size_t ready_ = 0;
  std::uint64_t released_ = 0;
  std::uint64_t summarized_ = 0;
  bool closed_ = false;  // workers exit once the queue is empty
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

}  // namespace cwcsim
