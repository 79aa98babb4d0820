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
      retired_(lanes_.size(), 0),
      live_(lanes_.size()),
      pool_(static_cast<unsigned>(
          std::min<std::size_t>(workers, units_.size()))) {
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
    g.out.resize(w);
    g.live = w;
  }
}

void lane_executor::step(std::size_t u) {
  unit& g = units_[u];
  if (g.live == 0) return;
  if (g.batch != nullptr) {
    for (auto& s : g.out) s.clear();
    g.batch->step_quantum(cfg_.quantum, cfg_.t_end, cfg_.sample_period, g.out);
  } else {  // a scalar unit holds lane u alone
    g.out[0] = advance_one_quantum(*g.scalar, cfg_, lanes_[u].trajectory_id,
                                   rounds_)
                   .batch.samples;
  }
}

std::uint64_t lane_executor::steps_of(std::size_t i) const {
  const unit& g = units_[i / width_];
  return g.batch != nullptr ? g.batch->steps(i % width_) : g.scalar->steps();
}

double lane_executor::time_of(std::size_t i) const {
  const unit& g = units_[i / width_];
  return g.batch != nullptr ? g.batch->time(i % width_) : g.scalar->time();
}

double lane_executor::round(const samples_fn& on_samples,
                           const done_fn& on_done) {
  double before = 0.0;
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    if (retired_[i] == 0) before += time_of(i);
  // Grain 1 hands out whole batch groups; scalar lanes use the pool's
  // automatic chunking.
  pool_.for_each(0, static_cast<std::int64_t>(units_.size()),
                 width_ > 1 ? 1 : 0,
                 [this](std::int64_t u) { step(static_cast<std::size_t>(u)); });
  ++rounds_;

  double after = 0.0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (retired_[i] != 0) continue;
    const std::uint64_t total = steps_of(i);
    const double t = time_of(i);
    after += t;
    on_samples({lanes_[i], total - steps_[i],
                units_[i / width_].out[i % width_], t, total});
    steps_[i] = total;
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (retired_[i] != 0 || time_of(i) < cfg_.t_end) continue;
    retired_[i] = 1;
    --units_[i / width_].live;
    --live_;
    on_done(lanes_[i].cell,
            task_done{lanes_[i].trajectory_id, rounds_, steps_[i]});
  }
  return after - before;
}

}  // namespace cwcsim
