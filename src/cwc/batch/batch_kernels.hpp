// Lane-innermost wide kernels over the batch engine's lane-major strips.
//
// Every kernel here is a plain loop over `cap` contiguous lane columns with
// all per-op/per-head branching hoisted OUTSIDE the column loop, so the
// compiler auto-vectorizes the column loop under `-march` targets with
// 64-bit integer SIMD (see the CWCSIM_NATIVE CMake option). No intrinsics:
// the scalar fallback compiled from the very same expressions on a baseline
// ISA produces bit-identical doubles, because every operation is an IEEE
// elementary op (+, -, *, /, compare, u64->f64 convert) applied
// element-wise — vector lanes round exactly like scalar registers do.
// The only libm calls (std::pow for non-integer Hill exponents) stay
// scalar per column, so vector-libm variance can never leak in.
//
// Exactness contract: for each column, the wide tape evaluation computes
// the SAME factor sequence, grouping, and head expression tree as
// rate_tape::eval, the scalar tree engine's evaluator too; the wide
// folds run the same left-to-right accumulation order per column as the
// scalar per-lane folds. Infeasible or garbage columns (freed pool slots
// hold stale-but-defined values) are masked to +0.0 by the feasibility
// word, never branched on — over-evaluating a clean column rewrites the
// identical bits, which is what lets the engine sweep whole rows.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cwc/rate_tape.hpp"

namespace cwc::batch::kernels {

/// Reusable per-engine scratch rows (one allocation, warmed once).
struct wide_scratch {
  std::vector<double> comb;  ///< host-segment / combined combinatorics
  std::vector<double> w;     ///< child-wrap segment product
  std::vector<double> cc;    ///< child-content segment product
  std::vector<double> tmp;   ///< generic-k choose accumulator
  std::vector<double> x;     ///< driver copy numbers as doubles
  std::vector<double> xn;    ///< Hill x^n row
  std::vector<std::uint64_t> ok;    ///< feasibility mask (all-ops AND)
  std::vector<std::uint64_t> have;  ///< generic-k count row

  void ensure(std::size_t cap) {
    if (comb.size() >= cap) return;
    comb.resize(cap);
    w.resize(cap);
    cc.resize(cap);
    tmp.resize(cap);
    x.resize(cap);
    xn.resize(cap);
    ok.resize(cap);
    have.resize(cap);
  }
};

namespace detail {

/// One tape segment: acc[c] = product over ops of choose(row[c], k), the
/// identical factor sequence cwc::choose produces (k == 1 / k == 2 fast
/// forms, generic left-to-right quotient product), with feasibility folded
/// into `ok`. Infeasible columns end with the same +0.0 product scalar
/// choose returns (a zero factor appears at or before i == have), so even
/// unmasked intermediate values agree.
inline void eval_segment(const tape_op* ops, std::uint32_t n_ops,
                         const std::uint64_t* base, std::size_t cap,
                         double* __restrict__ acc, std::uint64_t* __restrict__ ok,
                         std::uint64_t* __restrict__ have,
                         double* __restrict__ tmp) {
  for (std::size_t c = 0; c < cap; ++c) acc[c] = 1.0;
  for (std::uint32_t o = 0; o < n_ops; ++o) {
    const std::uint64_t* __restrict__ row =
        base + std::size_t{ops[o].sp} * cap;
    const std::uint64_t k = ops[o].k;
    if (k == 1) {
      for (std::size_t c = 0; c < cap; ++c) {
        const std::uint64_t h = row[c];
        ok[c] &= static_cast<std::uint64_t>(h >= 1);
        acc[c] *= static_cast<double>(h);
      }
    } else if (k == 2) {
      for (std::size_t c = 0; c < cap; ++c) {
        const std::uint64_t h = row[c];
        ok[c] &= static_cast<std::uint64_t>(h >= 2);
        const double ch =
            static_cast<double>(h) * (static_cast<double>(h - 1) / 2.0);
        acc[c] *= ch;
      }
    } else {
      for (std::size_t c = 0; c < cap; ++c) {
        have[c] = row[c];
        ok[c] &= static_cast<std::uint64_t>(have[c] >= k);
        tmp[c] = 1.0;
      }
      for (std::uint64_t i = 0; i < k; ++i) {
        const double denom = static_cast<double>(i + 1);
        for (std::size_t c = 0; c < cap; ++c)
          tmp[c] *= static_cast<double>(have[c] - i) / denom;
      }
      for (std::size_t c = 0; c < cap; ++c) acc[c] *= tmp[c];
    }
  }
}

}  // namespace detail

/// Evaluate one tape program over every column of a lane-major strip:
/// out[c] = rate_tape::eval(pg, ...) for column c. `host_c`, `child_w`,
/// `child_c` point at column 0 of the respective compartment's first
/// species row; element (sp, c) lives at base[sp * cap + c]. `child_*`
/// may be null when the program binds no child.
///
/// `a_col`, when non-null, supplies a per-column constant-scale operand
/// replacing pg.a — the sweep-cell path, where lanes of different
/// parameter cells share one strip and only the mass-action constant
/// differs per lane (overlays cannot patch the other heads, so those
/// always read pg's shared parameter block). Per column the arithmetic is
/// exactly rate_tape::eval on that column's cell tape: a_col[c] IS that
/// tape's pg.a, multiplied in the same position of the same expression.
inline void tape_eval_wide(const rate_tape& tape, const tape_program& pg,
                           const std::uint64_t* host_c,
                           const std::uint64_t* child_w,
                           const std::uint64_t* child_c, std::size_t cap,
                           double* __restrict__ out, wide_scratch& ws,
                           const double* __restrict__ a_col = nullptr) {
  ws.ensure(cap);
  std::uint64_t* __restrict__ ok = ws.ok.data();
  for (std::size_t c = 0; c < cap; ++c) ok[c] = 1;

  const tape_op* op = tape.ops() + pg.first_op;
  double* __restrict__ comb = ws.comb.data();
  detail::eval_segment(op, pg.n_host, host_c, cap, comb, ok, ws.have.data(),
                       ws.tmp.data());
  op += pg.n_host;
  if (pg.has_child) {
    detail::eval_segment(op, pg.n_wrap, child_w, cap, ws.w.data(), ok,
                         ws.have.data(), ws.tmp.data());
    op += pg.n_wrap;
    detail::eval_segment(op, pg.n_child, child_c, cap, ws.cc.data(), ok,
                         ws.have.data(), ws.tmp.data());
    const double* __restrict__ w = ws.w.data();
    const double* __restrict__ cc = ws.cc.data();
    // rate_tape::eval's grouping: comb * (w * cc).
    for (std::size_t c = 0; c < cap; ++c) comb[c] *= w[c] * cc[c];
  }

  double* __restrict__ x = ws.x.data();
  if (pg.has_driver) {
    const std::uint64_t* xr = pg.driver_in_child ? child_c : host_c;
    if (xr == nullptr) {
      for (std::size_t c = 0; c < cap; ++c) x[c] = 0.0;
    } else {
      const std::uint64_t* __restrict__ row =
          xr + std::size_t{pg.driver} * cap;
      for (std::size_t c = 0; c < cap; ++c)
        x[c] = static_cast<double>(row[c]);
    }
  }

  const double a = pg.a;
  switch (pg.head) {
    case tape_head::mass_action:
      if (a_col != nullptr) {
        for (std::size_t c = 0; c < cap; ++c) {
          const double p = a_col[c] * comb[c];
          out[c] = ((ok[c] != 0) & (p > 0.0)) ? p : 0.0;
        }
      } else {
        for (std::size_t c = 0; c < cap; ++c) {
          const double p = a * comb[c];
          out[c] = ((ok[c] != 0) & (p > 0.0)) ? p : 0.0;
        }
      }
      return;
    case tape_head::michaelis_menten: {
      const double b = pg.b;
      for (std::size_t c = 0; c < cap; ++c) {
        const double p = a * x[c] / (b + x[c]);
        out[c] = ((ok[c] != 0) & (p > 0.0)) ? p : 0.0;
      }
      return;
    }
    case tape_head::hill_repression:
    case tape_head::hill_activation: {
      double* __restrict__ xn = ws.xn.data();
      if (pg.hill_exp >= 0) {
        // detail::hill_pow's fixed-trip product, loop-interchanged: the
        // per-column multiply sequence is identical.
        for (std::size_t c = 0; c < cap; ++c) xn[c] = 1.0;
        for (int t = 0; t < pg.hill_exp; ++t)
          for (std::size_t c = 0; c < cap; ++c) xn[c] *= x[c];
      } else {
        // Non-integer exponent: scalar libm pow per column, the exact
        // call rate_tape::eval makes (vector libm is never used).
        for (std::size_t c = 0; c < cap; ++c) xn[c] = std::pow(x[c], pg.n);
      }
      const double kn = pg.kn;
      if (pg.head == tape_head::hill_repression) {
        for (std::size_t c = 0; c < cap; ++c) {
          const double p = a * kn / (kn + xn[c]);
          out[c] = ((ok[c] != 0) & (p > 0.0)) ? p : 0.0;
        }
      } else {
        for (std::size_t c = 0; c < cap; ++c) {
          const double p = a * xn[c] / (kn + xn[c]);
          out[c] = ((ok[c] != 0) & (p > 0.0)) ? p : 0.0;
        }
      }
      return;
    }
    case tape_head::custom:
      for (std::size_t c = 0; c < cap; ++c) out[c] = 0.0;  // gated out
      return;
  }
}

/// Left-to-right fold of `count` consecutive strip rows into one row:
/// out[c] = sum over r in [first, first+count) of rows[r * cap + c], summed
/// in ascending r — per column, the scalar fold's exact accumulation
/// order. Serves both block refolds (rows = per-match propensities) and
/// lane totals (rows = per-node block subtotals).
inline void fold_rows_wide(const double* rows, std::uint32_t first,
                           std::uint32_t count, std::size_t cap,
                           double* __restrict__ out) {
  for (std::size_t c = 0; c < cap; ++c) out[c] = 0.0;
  for (std::uint32_t r = first; r < first + count; ++r) {
    const double* __restrict__ row = rows + std::size_t{r} * cap;
    for (std::size_t c = 0; c < cap; ++c) out[c] += row[c];
  }
}

}  // namespace cwc::batch::kernels
