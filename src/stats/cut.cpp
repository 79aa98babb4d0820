#include "stats/cut.hpp"

#include <algorithm>
#include <iterator>

#include "util/check.hpp"

namespace stats {

cut_summary summarize_cut(const trajectory_cut& cut, std::uint32_t kmeans_k,
                          std::uint64_t seed) {
  cut_summary s;
  s.sample_index = cut.sample_index;
  s.time = cut.time;
  if (cut.values.empty()) return s;

  const std::size_t dims = cut.dims;
  util::expects(dims > 0 && cut.values.size() % dims == 0,
                "malformed trajectory cut");
  const std::size_t n = cut.trajectories();
  s.moments.resize(dims);
  s.medians.resize(dims, 0.0);

  // One row-major pass: accumulator d still sees observable d in
  // trajectory order, so the moments round exactly as a per-column pass.
  const double* v = cut.values.data();
  for (std::size_t t = 0; t < n; ++t, v += dims)
    for (std::size_t d = 0; d < dims; ++d) s.moments[d].add(v[d]);

  std::vector<double> column(n);
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t t = 0; t < n; ++t) column[t] = cut.values[t * dims + d];
    auto mid = column.begin() + static_cast<std::ptrdiff_t>(n / 2);
    std::nth_element(column.begin(), mid, column.end());
    s.medians[d] = *mid;
  }

  if (kmeans_k > 0) s.clusters = kmeans(cut.values, dims, kmeans_k, seed);
  return s;
}

sliding_window_builder::sliding_window_builder(std::size_t size, std::size_t slide)
    : size_(size), slide_(slide) {
  util::expects(size > 0 && slide > 0, "window size and slide must be positive");
  util::expects(slide <= size, "slide larger than window loses cuts");
}

std::vector<trajectory_window> sliding_window_builder::push(trajectory_cut cut) {
  if (saw_any_) {
    util::expects(cut.sample_index == last_index_ + 1,
                  "cuts must arrive consecutively");
  } else {
    next_start_ = cut.sample_index;
    saw_any_ = true;
  }
  last_index_ = cut.sample_index;
  buffer_.push_back(std::move(cut));

  // Cuts arrive consecutively and each window drops the `slide_` cuts no
  // later window needs, so the buffer fills up to exactly one window.
  std::vector<trajectory_window> out;
  if (buffer_.size() < size_) return out;
  trajectory_window w;
  w.first_sample = next_start_;
  w.cuts.reserve(size_);
  next_start_ += slide_;
  for (auto& c : buffer_) {
    if (c.sample_index < next_start_)
      w.cuts.push_back(std::move(c));  // this is the last window needing it
    else
      w.cuts.push_back(c);
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(slide_));
  out.push_back(std::move(w));
  return out;
}

std::vector<trajectory_window> sliding_window_builder::flush() {
  std::vector<trajectory_window> out;
  if (!buffer_.empty()) {
    trajectory_window w;
    w.first_sample = next_start_;
    w.cuts.assign(std::make_move_iterator(buffer_.begin()),
                  std::make_move_iterator(buffer_.end()));
    out.push_back(std::move(w));
    buffer_.clear();
  }
  return out;
}

}  // namespace stats
