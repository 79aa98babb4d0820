// Stochastic kinetic laws attached to CWC rewrite rules.
//
// mass_action covers elementary reactions: propensity =
//   k * (distinct reactant combinations in the matched compartment).
// michaelis_menten and hill_* cover the reduced kinetics used by the
// Neurospora circadian model (the paper's workload): their propensity is a
// nonlinear function of a driver species' copy number, as is standard when
// embedding quasi-steady-state kinetics in an SSA (Rao & Arkin, 2003).
// `custom` accepts any callable on the match context.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>

#include "cwc/multiset.hpp"
#include "cwc/species.hpp"

namespace cwc {

/// A rate-constant overlay was requested on a law that has no single
/// overlayable constant (MM/Hill carry several coupled parameters, custom
/// laws an opaque callable) or named a rule the model does not have. Typed
/// so sweep campaigns can reject bad plans up front instead of surfacing a
/// generic precondition failure from deep inside the engines.
class overlay_error : public std::invalid_argument {
 public:
  overlay_error(std::string rule, const std::string& what)
      : std::invalid_argument("rate overlay on '" + rule + "': " + what),
        rule_(std::move(rule)) {}

  /// The rule/reaction name the overlay targeted.
  const std::string& rule() const noexcept { return rule_; }

 private:
  std::string rule_;
};

namespace detail {

/// The ONE Hill-exponent power used on every stochastic propensity path
/// (rate_law::evaluate_direct, the rate-law bytecode tape, and the batch
/// engine's wide kernels). Small non-negative integer exponents — every
/// Hill coefficient in the model library — evaluate as a fixed-trip
/// left-to-right product, which the compiler unrolls/vectorizes and which
/// is a pure elementary-op sequence, so scalar and lane-vectorized
/// evaluation produce bit-identical doubles. Non-integer exponents fall
/// back to std::pow. int_n == 0 yields 1.0 for every x, including x == 0
/// (matching std::pow(0, 0) == 1). The deterministic ODE path
/// (evaluate_continuous) intentionally keeps libm pow.
inline double hill_pow(double x, double n, int int_n) noexcept {
  if (int_n >= 0) {
    double r = 1.0;
    for (int i = 0; i < int_n; ++i) r *= x;
    return r;
  }
  return std::pow(x, n);
}

/// Integer Hill exponent detection: exact small non-negative integers take
/// the fixed-trip product path; everything else (including huge or
/// non-integral n) keeps libm pow.
inline int hill_int_exp_of(double n) noexcept {
  if (n >= 0.0 && n <= 32.0 && n == std::floor(n)) return static_cast<int>(n);
  return -1;
}

}  // namespace detail

/// What a rate law may inspect when evaluated for one candidate match.
struct rate_ctx {
  const multiset& local;          ///< content of the compartment the rule fires in
  const multiset* child_content;  ///< content of the bound child (nullptr if none)
  double combinations;            ///< mass-action combinatorial factor of the match
};

class rate_law {
 public:
  using custom_fn = std::function<double(const rate_ctx&)>;

  /// Law family, exposed for introspection (the wire codec re-creates laws
  /// through the factories above from kind + parameters; `custom` carries
  /// an opaque callable and is therefore not serialisable).
  enum class kind : std::uint8_t {
    mass_action,
    michaelis_menten,
    hill_repression,
    hill_activation,
    custom,
  };

  // The factories throw util::precondition_error for a negative, NaN or
  // infinite parameter, a non-positive K or Km, and a Hill K^n that is not
  // a positive finite double.

  /// Elementary mass-action kinetics with stochastic rate constant `k`.
  static rate_law mass_action(double k);

  /// Michaelis-Menten propensity V*n/(K+n) where n is the copy number of
  /// `driver` (in the child content when `driver_in_child`).
  static rate_law michaelis_menten(double vmax, double km, species_id driver,
                                   bool driver_in_child = false);

  /// Hill repression propensity v*K^n/(K^n + x^n) with x the driver count —
  /// the transcription-inhibition law of the Neurospora model. n == 0 is
  /// permitted and degenerates to the constant v/2 (x^0 == 1 for every x,
  /// including x == 0, matching std::pow).
  static rate_law hill_repression(double v, double k, double n, species_id driver,
                                  bool driver_in_child = false);

  /// Hill activation propensity v*x^n/(K^n + x^n). n == 0 degenerates to
  /// the constant v/2; for n > 0 a zero driver count yields 0.
  static rate_law hill_activation(double v, double k, double n, species_id driver,
                                  bool driver_in_child = false);

  /// Arbitrary user-defined propensity.
  static rate_law custom(custom_fn fn);

  /// Propensity of one candidate match. Non-negative; 0 disables the match.
  /// The flat engine evaluates its non-mass-action laws here, and the tree
  /// engine its custom laws; tree engines evaluate every other law through
  /// the rate tape (rate_tape.hpp), which mirrors evaluate_direct.
  double evaluate(const rate_ctx& ctx) const;

  /// The closed-form law arithmetic of evaluate(): propensity from the
  /// mass-action combinatorial factor and the driver species' copy number
  /// (ignored by mass_action).
  /// Not defined for custom laws (they need the full rate_ctx) — callers
  /// must check law_kind() first; evaluate() routes custom laws itself.
  double evaluate_direct(double combinations, double driver_count) const;

  /// Deterministic (mean-field) rate for the ODE converter: the caller
  /// supplies the continuous state and the mass-action monomial
  /// prod_s y_s^{n_s}; MM/Hill read the driver from `y`. Throws for
  /// custom laws (no closed deterministic form).
  double evaluate_continuous(std::span<const double> y,
                             double mass_action_product) const;

  /// True for mass_action (used by the deterministic ODE converter).
  bool is_mass_action() const noexcept { return kind_ == kind::mass_action; }

  /// The mass-action constant; only meaningful when is_mass_action().
  double constant() const noexcept { return a_; }

  /// Rebind the mass-action constant: a copy of this law with `k` in place
  /// of the original constant, produced WITHOUT re-running the factory
  /// validation/parse path — the sweep overlay primitive (M cells patch one
  /// compiled law table instead of rebuilding M models). Throws
  /// overlay_error for every non-mass-action law: MM/Hill carry several
  /// coupled parameters and custom laws an opaque callable, so "the"
  /// constant is ill-defined for them. Throws overlay_error too for a
  /// negative, NaN or infinite `k`. `rule_name` only labels the error.
  rate_law with_constant(double k, std::string_view rule_name = "") const;

  // ---- introspection (wire codec / tape compiler / diagnostics) -----
  // Everything the rate-law bytecode tape compiler needs is public here —
  // including the precomputed K^n and the integer-exponent classification —
  // so the tape reads the law through accessors rather than friend-poking
  // its internals (and cannot drift from the constants evaluate_direct
  // itself uses).
  kind law_kind() const noexcept { return kind_; }
  double param_a() const noexcept { return a_; }  ///< k | Vmax | v
  double param_b() const noexcept { return b_; }  ///< -  | Km   | K
  double param_c() const noexcept { return c_; }  ///< -  | -    | Hill n
  /// Precomputed K^n of the Hill laws (1.0 when n == 0); 0 otherwise.
  double param_kn() const noexcept { return kn_; }
  /// The Hill exponent as a small non-negative integer, or -1 when the
  /// exponent is non-integral (libm-pow path). See detail::hill_pow.
  int hill_int_exp() const noexcept { return exp_; }
  species_id driver() const noexcept { return driver_; }
  bool driver_in_child() const noexcept { return driver_in_child_; }

 private:
  rate_law(kind k, double a, double b, double c, species_id driver,
           bool driver_in_child, custom_fn fn)
      : kind_(k), a_(a), b_(b), c_(c), driver_(driver),
        driver_in_child_(driver_in_child), fn_(std::move(fn)) {}

  /// The shared body of the two Hill factories.
  static rate_law hill(kind which, double v, double k, double n,
                       species_id driver, bool driver_in_child);

  double driver_count(const rate_ctx& ctx) const;

  kind kind_;
  double a_ = 0.0;  // k | Vmax | v
  double b_ = 0.0;  // -  | Km   | K
  double c_ = 0.0;  // -  | -    | n (Hill exponent)
  double kn_ = 0.0; // K^n, precomputed for the Hill laws (one pow per step saved)
  int exp_ = -1;    // Hill n as a small non-negative integer, -1 for libm pow
  species_id driver_ = 0;
  bool driver_in_child_ = false;
  custom_fn fn_;
};

}  // namespace cwc
