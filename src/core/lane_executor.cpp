#include "core/lane_executor.hpp"

#include <algorithm>

#include "core/quantum.hpp"

namespace cwcsim {

std::vector<lane_executor::lane> lane_executor::ensemble(std::uint64_t n,
                                                         std::uint32_t cells) {
  std::vector<lane> out;
  out.reserve(static_cast<std::size_t>(n) * cells);
  for (std::uint32_t c = 0; c < cells; ++c)
    for (std::uint64_t i = 0; i < n; ++i) out.push_back({i, c});
  return out;
}

bool lane_executor::batches(const cell_list& cells, std::size_t batch_width) {
  return batch_width > 1 &&
         std::all_of(cells.begin(), cells.end(), [](const auto& cm) {
           return cm != nullptr && cwc::batch::batch_engine::supports(*cm);
         });
}

lane_executor::lane_executor(cell_list cells, const sim_config& cfg,
                             std::vector<lane> lanes, std::size_t batch_width,
                             unsigned workers)
    : cfg_(cfg),
      lanes_(std::move(lanes)),
      width_(batches(cells, batch_width) ? batch_width : 1),
      units_((lanes_.size() + width_ - 1) / width_),
      steps_(lanes_.size(), 0),
      retired_in_(lanes_.size(), 0),
      live_(lanes_.size()),
      pool_(static_cast<unsigned>(
          std::min<std::size_t>(workers, units_.size()))) {
  // Engines start at time 0 with no steps: the records' defaults.
  rec_[0].resize(lanes_.size());
  for (std::size_t u = 0; u < units_.size(); ++u) {
    unit& g = units_[u];
    const auto first =
        lanes_.begin() + static_cast<std::ptrdiff_t>(u * width_);
    const std::size_t w = std::min(width_, lanes_.size() - u * width_);
    if (width_ > 1) {
      // Lane i of the group is lanes_[u * width_ + i]: the same
      // (seed, trajectory id) stream as its scalar engine.
      g.batch = std::make_unique<cwc::batch::batch_engine>(
          cells, cfg_.seed,
          std::vector<lane>(first, first + static_cast<std::ptrdiff_t>(w)));
    } else {
      g.scalar.emplace(cells[first->cell], cfg_.seed, first->trajectory_id);
    }
    g.out[0].resize(w);
    g.live = w;
  }
}

void lane_executor::step(std::size_t u, std::size_t b, std::uint64_t k) {
  unit& g = units_[u];
  if (g.live == 0) return;
  auto& out = g.out[b];
  lane_record* rec = rec_[b].data() + u * width_;
  if (g.batch != nullptr) {
    for (auto& s : out) s.clear();
    g.batch->step_quantum(cfg_.quantum, cfg_.t_end, cfg_.sample_period, out);
    for (std::size_t i = 0; i < out.size(); ++i)
      rec[i] = {g.batch->time(i), g.batch->steps(i)};
  } else {  // a scalar unit holds lane u alone
    out[0] =
        advance_one_quantum(*g.scalar, cfg_, lanes_[u].trajectory_id, k)
            .batch.samples;
    rec[0] = {g.scalar->time(), g.scalar->steps()};
  }
}

void lane_executor::step_all(std::size_t b, std::uint64_t k,
                             const std::function<void()>& meanwhile) {
  // Grain 1 hands out whole batch groups; scalar lanes use the pool's
  // automatic chunking.
  pool_.for_each(
      0, static_cast<std::int64_t>(units_.size()), width_ > 1 ? 1 : 0,
      [&](std::int64_t u) { step(static_cast<std::size_t>(u), b, k); },
      meanwhile);
}

std::size_t lane_executor::retire(std::size_t b, std::uint64_t k) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (retired_in_[i] != 0 || rec_[b][i].time < cfg_.t_end) continue;
    retired_in_[i] = k;
    --units_[i / width_].live;
    ++n;
  }
  return n;
}

double lane_executor::deliver(std::size_t b, const samples_fn& on_samples,
                              const done_fn& on_done) {
  const std::uint64_t k = ++rounds_;
  double time = 0.0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (retired_in_[i] != 0 && retired_in_[i] != k) continue;
    const lane_record& r = rec_[b][i];
    time += r.time;
    on_samples({lanes_[i], r.total_steps - steps_[i],
                units_[i / width_].out[b][i % width_], r.time,
                r.total_steps});
    steps_[i] = r.total_steps;
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (retired_in_[i] != k) continue;
    --live_;
    on_done(lanes_[i].cell, task_done{lanes_[i].trajectory_id, k, steps_[i]});
  }
  return time;
}

double lane_executor::round(const samples_fn& on_samples,
                           const done_fn& on_done) {
  // Each live lane's record still holds its time after the last round.
  double before = 0.0;
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    if (retired_in_[i] == 0) before += rec_[0][i].time;
  step_all(0, rounds_);
  retire(0, rounds_ + 1);
  return deliver(0, on_samples, on_done) - before;
}

bool lane_executor::run(const samples_fn& on_samples, const done_fn& on_done,
                        const between_fn& between) {
  if (live_ == 0) return true;
  for (unit& g : units_) g.out[1].resize(g.out[0].size());
  rec_[1].resize(lanes_.size());

  std::size_t b = 0;  // the buffer of the next round to deliver
  bool go = true;
  const std::function<void()> deliver_round = [&] {
    deliver(b, on_samples, on_done);
    go = between();
  };
  std::uint64_t k = rounds_;  // rounds stepped
  step_all(b, k++);
  std::size_t left = live_ - retire(b, k);
  while (left > 0) {
    step_all(b ^ 1, k++, deliver_round);
    if (!go) return false;  // the round just stepped is dropped
    b ^= 1;
    left -= retire(b, k);
  }
  deliver_round();  // the last round: nothing is left to step beside it
  return true;
}

}  // namespace cwcsim
