// stencil_reduce — FastFlow's GPU-oriented core pattern, CPU backend.
//
// Iteratively applies a stencil kernel out[i] = f(in, i) over an index
// space, reduces a per-element value, and repeats while a caller-supplied
// condition on (reduced value, iteration) holds. Only this CPU backend
// exists: the cwcsim::gpu backend offloads quanta "to the GPU" through the
// lane executor and the SIMT device model in src/simt/, not through this
// pattern.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ff/parallel_for.hpp"
#include "util/check.hpp"

namespace ff {

struct stencil_stats {
  std::uint64_t iterations = 0;
};

/// Runs the iterate-map-reduce loop on the CPU pool.
///  - kernel(in, out, i): compute element i of `out` reading any of `in`
///  - reducer(out, i) -> R: per-element contribution
///  - combine(R, R) -> R
///  - keep_going(R, iter) -> bool: continue?
/// Buffers swap internally; the final state ends up in `front` which is
/// returned by reference semantics (data ends in the span passed as `a`
/// when the iteration count is even, `b` otherwise — use the return value).
template <typename T, typename R, typename Kernel, typename Reducer,
          typename Combine, typename Cond>
std::pair<std::span<T>, stencil_stats> stencil_reduce(
    parallel_for& pf, std::span<T> a, std::span<T> b, R init, Kernel&& kernel,
    Reducer&& reducer, Combine&& combine, Cond&& keep_going,
    std::uint64_t max_iterations = 1'000'000) {
  util::expects(a.size() == b.size(), "stencil buffers must match");
  std::span<T> in = a;
  std::span<T> out = b;
  stencil_stats st;
  while (st.iterations < max_iterations) {
    pf.for_each(0, static_cast<std::int64_t>(in.size()), 0,
                [&](std::int64_t i) { kernel(in, out, static_cast<std::size_t>(i)); });
    R red = pf.reduce(
        0, static_cast<std::int64_t>(out.size()), 0, init,
        [&](std::int64_t i) { return reducer(out, static_cast<std::size_t>(i)); },
        combine);
    ++st.iterations;
    std::swap(in, out);
    if (!keep_going(red, st.iterations)) break;
  }
  return {in, st};  // `in` holds the most recent output after the swap
}

}  // namespace ff
