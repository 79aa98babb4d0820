// The cut-assembly core of the alignment stage (analysis_stage, on every
// backend): collects per-trajectory samples into cuts indexed by
// trajectory id and releases each cut, in sample-index order, once every
// trajectory has contributed.
//
// Keeping this logic in one place is what makes the cross-backend
// bit-exactness guarantee durable: every deployment assembles cuts with
// the same rounding, the same indexing, and the same release rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "cwc/gillespie.hpp"
#include "stats/cut.hpp"
#include "util/check.hpp"

namespace cwcsim {

class cut_assembler {
 public:
  cut_assembler(const sim_config& cfg, std::size_t num_observables)
      : cfg_(&cfg), num_observables_(num_observables) {}

  /// Record one sample of `trajectory`; invokes `emit(trajectory_cut&&)`
  /// for every cut this sample completes (in sample-index order). Throws
  /// util::precondition_error, before touching any cut, for a sample whose
  /// time is not finite, whose index is already released or past the last
  /// sample point, whose width is not the observable count, or whose
  /// (trajectory, index) already filled its row — the distributed master
  /// feeds decoded wire frames through here.
  template <typename Emit>
  void ingest(std::uint64_t trajectory, const cwc::trajectory_sample& s,
              Emit&& emit) {
    util::expects(std::isfinite(s.time), "sample time is not finite");
    const double pos = s.time / cfg_->sample_period + 0.5;
    util::expects(pos >= 0.0 &&
                      pos < static_cast<double>(cfg_->num_samples()),
                  "sample index past the sampling grid");
    const auto k = static_cast<std::uint64_t>(pos);
    util::expects(k >= next_emit_, "sample index already released");
    util::expects(s.values.size() == num_observables_,
                  "sample width differs from the observable count");
    util::expects(trajectory < cfg_->num_trajectories,
                  "trajectory id out of range");

    // pending_[j] holds cut next_emit_ + j.
    const std::uint64_t slot = k - next_emit_;
    if (slot >= pending_.size()) pending_.resize(slot + 1);
    pending_cut& p = pending_[slot];
    if (p.filled == 0) {
      p.cut.sample_index = k;
      p.cut.time = s.time;
      p.cut.dims = num_observables_;
      p.cut.values.assign(cfg_->num_trajectories * num_observables_, 0.0);
      p.has.assign(cfg_->num_trajectories, false);
    }
    util::expects(!p.has[trajectory],
                  "duplicate sample for this trajectory and index");
    std::copy(s.values.begin(), s.values.end(),
              p.cut.values.begin() +
                  static_cast<std::ptrdiff_t>(trajectory * num_observables_));
    p.has[trajectory] = true;
    ++p.filled;

    while (!pending_.empty() &&
           pending_.front().filled == cfg_->num_trajectories) {
      emit(std::move(pending_.front().cut));
      pending_.pop_front();
      ++next_emit_;
      ++emitted_;
    }
  }

  /// True when no partially-filled cut remains (a complete run's end state).
  bool drained() const noexcept { return pending_.empty(); }
  std::uint64_t emitted() const noexcept { return emitted_; }

 private:
  struct pending_cut {
    stats::trajectory_cut cut;
    std::vector<bool> has;  ///< per trajectory: row already filled
    std::uint64_t filled = 0;
  };

  const sim_config* cfg_;
  std::size_t num_observables_;
  // Cuts not yet released, in sample-index order from next_emit_; a slot
  // no sample has reached yet holds an empty cut with filled == 0.
  std::deque<pending_cut> pending_;
  std::uint64_t next_emit_ = 0;
  std::uint64_t emitted_ = 0;
};

}  // namespace cwcsim
