// Rate-law bytecode tape: every rule's propensity closed form, compiled to
// a flat op sequence evaluated with zero virtual/branchy per-kind dispatch.
// It is the one propensity evaluator for tree models: the scalar tree
// engine (gillespie.cpp) calls eval() over a compartment's dense count rows
// (stride 1), and the batch engine calls it, or its wide twins in
// batch/batch_kernels.hpp, over lane-major strips (stride = lane capacity).
//
// A rule's propensity is
//
//   comb_host * (comb_wrap * comb_child)   -- the match combinatorics --
//
// fed into one of four closed-form heads (mass-action, Michaelis-Menten,
// Hill repression/activation). The tape flattens the combinatoric part into
// a run of choose() ops (ascending species inside each segment, segments in
// host -> wrap -> child order; FP multiplication is not associative, so the
// order and the grouping are part of the bit-exactness contract) and the
// head into a small parameter block. Evaluation is a straight-line walk: no
// rate_law switch inside the per-lane loop, and the wide kernels hoist each
// op's k-specialisation outside the lane loop entirely.
//
// `custom` laws carry an opaque callable over the full match context. Their
// programs still carry the combinatoric ops: combinations() returns the
// product the callable receives as rate_ctx::combinations, and the tree
// engine calls the callable itself. eval() refuses a custom head (batch
// engines gate such models out via supports()).
//
// Exactness: infeasible matches (some required count short) evaluate to
// +0.0 through a feasibility mask rather than an early return; feasible
// matches run the left-to-right factor sequence through cwc::choose and the
// head expression tree of rate_law::evaluate_direct (detail::hill_pow
// included), bit for bit. tests/match_oracle.hpp is an independent
// per-rule matcher, and rate_tape_test holds the tape to it.
#pragma once

#include <cstdint>
#include <vector>

#include "cwc/multiset.hpp"
#include "cwc/rate_law.hpp"
#include "cwc/species.hpp"
#include "util/check.hpp"

namespace cwc {

class model;

/// Closed-form head applied to the match combinatorics.
enum class tape_head : std::uint8_t {
  mass_action,       ///< a * comb
  michaelis_menten,  ///< a * x / (b + x)
  hill_repression,   ///< a * kn / (kn + x^n)
  hill_activation,   ///< a * x^n / (kn + x^n)
  custom,            ///< eval() refuses it; combinations() serves it
};

/// One combinatoric factor: choose(count[sp], k), k > 0 (zero-multiplicity
/// species are omitted at compile time).
/// The source array (host content / child wrap / child content) is implied
/// by which segment of the program the op sits in.
struct tape_op {
  species_id sp = 0;
  std::uint32_t k = 0;
};

/// One rule's compiled program: an op range split into the three source
/// segments plus the head parameter block (constants pre-resolved from the
/// rate_law through its accessors, so the tape cannot drift from what
/// evaluate_direct itself uses).
struct tape_program {
  std::uint32_t first_op = 0;
  std::uint16_t n_host = 0;   ///< host-content ops
  std::uint16_t n_wrap = 0;   ///< bound child's membrane ops
  std::uint16_t n_child = 0;  ///< bound child's content ops
  tape_head head = tape_head::custom;
  bool has_child = false;        ///< rule binds a child compartment
  bool has_driver = false;       ///< head reads a driver copy number
  bool driver_in_child = false;  ///< driver read from the bound child
  species_id driver = 0;
  comp_type_id child_type = 0;  ///< type a bound child must have
  double a = 0.0;    ///< k | Vmax | v
  double b = 0.0;    ///< Km (Michaelis-Menten)
  double n = 0.0;    ///< Hill exponent
  double kn = 0.0;   ///< precomputed K^n (Hill)
  int hill_exp = -1; ///< Hill n as small non-negative int, -1 => libm pow
};

/// The per-model tape: one program per rule, declaration order, over one
/// shared flat op array. Immutable after compile(); stored in
/// compiled_model and shared by every engine like the other static tables.
class rate_tape {
 public:
  rate_tape() = default;

  /// Compile every rule of a tree model. Never fails: custom laws become
  /// `custom` programs whose combinatorics combinations() evaluates and
  /// whose head eval() refuses.
  static rate_tape compile(const model& m);

  std::size_t num_programs() const noexcept { return progs_.size(); }
  const tape_program& program(std::size_t rule) const {
    return progs_[rule];
  }
  const tape_op* ops() const noexcept { return ops_.data(); }

  /// Rewrite the constant-scale operand of rule `rule`'s program — the
  /// sweep-overlay patch path, and the only place a tree overlay's
  /// constants live. Only mass-action heads have a single overlayable
  /// constant (p = a * comb); the compiled_model overlay layer checks the
  /// head kind and the value via rate_law::with_constant before calling
  /// this, so a mismatch here is a programming error, not user input.
  void patch_constant(std::size_t rule, double a) {
    util::expects(rule < progs_.size() &&
                      progs_[rule].head == tape_head::mass_action,
                  "tape constant patch needs a mass-action program");
    progs_[rule].a = a;
  }

  /// Scalar tape walk over strided count arrays: element `sp` of a count
  /// row lives at base[sp * stride] (stride 1 for dense per-compartment
  /// rows, stride == lane capacity for the batch engine's lane-major
  /// strips). `child_w`/`child_c` may be null when the program binds no
  /// child; a null `child_c` with driver_in_child reads a zero driver
  /// (the scalar engines' missing-child convention). Returns the match's
  /// propensity, or +0.0 when it is infeasible or not positive.
  double eval(const tape_program& pg, const std::uint64_t* host_c,
              const std::uint64_t* child_w, const std::uint64_t* child_c,
              std::size_t stride) const noexcept {
    // Feasibility mask instead of early returns: the masked result is +0.0
    // either way, and the feasible path multiplies the identical factors.
    bool ok = true;
    const double comb = walk(pg, host_c, child_w, child_c, stride, ok);
    double x = 0.0;
    if (pg.has_driver) {
      const std::uint64_t* xr = pg.driver_in_child ? child_c : host_c;
      x = xr != nullptr ? static_cast<double>(xr[pg.driver * stride]) : 0.0;
    }
    double p = 0.0;
    switch (pg.head) {
      case tape_head::mass_action:
        p = pg.a * comb;
        break;
      case tape_head::michaelis_menten:
        // Branchless form of `x == 0 ? 0 : a*x/(b+x)`: at x == 0 the
        // expression is +0/b == +0.0 (b = Km > 0), the same bits.
        p = pg.a * x / (pg.b + x);
        break;
      case tape_head::hill_repression:
        p = pg.a * pg.kn / (pg.kn + detail::hill_pow(x, pg.n, pg.hill_exp));
        break;
      case tape_head::hill_activation: {
        // Branchless form of evaluate_direct's x==0 early return: for
        // n > 0, x^n is +0 and a*0/(kn+0) == +0/kn == +0.0 (kn = K^n > 0);
        // for n == 0, x^n == 1 and the constant a/2 survives, as it should.
        const double xn = detail::hill_pow(x, pg.n, pg.hill_exp);
        p = pg.a * xn / (pg.kn + xn);
        break;
      }
      case tape_head::custom:
        return 0.0;  // the caller evaluates custom laws
    }
    // Feasibility mask plus the non-negativity clamp (which also absorbs
    // NaN from masked-out garbage intermediates).
    return (ok && p > 0.0) ? p : 0.0;
  }

  /// The match combinatorics of `pg` over the same rows as eval(): the
  /// product of its choose() factors, or +0.0 when the match is infeasible.
  /// A custom law receives this value as rate_ctx::combinations.
  double combinations(const tape_program& pg, const std::uint64_t* host_c,
                      const std::uint64_t* child_w,
                      const std::uint64_t* child_c,
                      std::size_t stride) const noexcept {
    bool ok = true;
    const double comb = walk(pg, host_c, child_w, child_c, stride, ok);
    return ok ? comb : 0.0;
  }

 private:
  /// The op walk: host factors times (wrap factors * child factors), with
  /// `ok` cleared when some required count is short.
  double walk(const tape_program& pg, const std::uint64_t* host_c,
              const std::uint64_t* child_w, const std::uint64_t* child_c,
              std::size_t stride, bool& ok) const noexcept {
    const tape_op* op = ops_.data() + pg.first_op;
    double comb = 1.0;
    for (std::uint32_t i = 0; i < pg.n_host; ++i, ++op) {
      const std::uint64_t have = host_c[op->sp * stride];
      ok &= have >= op->k;
      comb *= choose(have, op->k);
    }
    if (pg.has_child) {
      double w = 1.0;
      for (std::uint32_t i = 0; i < pg.n_wrap; ++i, ++op) {
        const std::uint64_t have = child_w[op->sp * stride];
        ok &= have >= op->k;
        w *= choose(have, op->k);
      }
      double cc = 1.0;
      for (std::uint32_t i = 0; i < pg.n_child; ++i, ++op) {
        const std::uint64_t have = child_c[op->sp * stride];
        ok &= have >= op->k;
        cc *= choose(have, op->k);
      }
      comb *= w * cc;
    }
    return comb;
  }

  std::vector<tape_program> progs_;
  std::vector<tape_op> ops_;
};

}  // namespace cwc
