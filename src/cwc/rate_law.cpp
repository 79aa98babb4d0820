#include "cwc/rate_law.hpp"

#include <cmath>

#include "util/check.hpp"

namespace cwc {

namespace {

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }
bool finite_pos(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

rate_law rate_law::mass_action(double k) {
  util::expects(finite_nonneg(k),
                "mass-action constant must be finite and non-negative");
  return rate_law(kind::mass_action, k, 0, 0, 0, false, nullptr);
}

rate_law rate_law::michaelis_menten(double vmax, double km, species_id driver,
                                    bool driver_in_child) {
  util::expects(finite_nonneg(vmax) && finite_pos(km),
                "MM parameters out of range");
  return rate_law(kind::michaelis_menten, vmax, km, 0, driver, driver_in_child,
                  nullptr);
}

rate_law rate_law::hill(kind which, double v, double k, double n,
                        species_id driver, bool driver_in_child) {
  util::expects(finite_nonneg(v) && finite_pos(k) && finite_nonneg(n),
                "Hill parameters out of range");
  rate_law law(which, v, k, n, driver, driver_in_child, nullptr);
  law.kn_ = std::pow(k, n);
  // K^n overflowing to inf gives inf/inf = NaN, and underflowing to 0 gives
  // 0/0 at a zero driver count.
  util::expects(finite_pos(law.kn_),
                "Hill K^n must be a positive finite double");
  law.exp_ = detail::hill_int_exp_of(n);
  return law;
}

rate_law rate_law::hill_repression(double v, double k, double n, species_id driver,
                                   bool driver_in_child) {
  return hill(kind::hill_repression, v, k, n, driver, driver_in_child);
}

rate_law rate_law::hill_activation(double v, double k, double n, species_id driver,
                                   bool driver_in_child) {
  return hill(kind::hill_activation, v, k, n, driver, driver_in_child);
}

rate_law rate_law::with_constant(double k, std::string_view rule_name) const {
  if (kind_ != kind::mass_action)
    throw overlay_error(std::string(rule_name),
                        "only mass-action constants can be overlaid");
  if (!finite_nonneg(k))
    throw overlay_error(std::string(rule_name),
                        "overlay constant must be finite and non-negative");
  rate_law law = *this;
  law.a_ = k;
  return law;
}

rate_law rate_law::custom(custom_fn fn) {
  util::expects(fn != nullptr, "custom rate law requires a callable");
  return rate_law(kind::custom, 0, 0, 0, 0, false, std::move(fn));
}

double rate_law::driver_count(const rate_ctx& ctx) const {
  if (driver_in_child_) {
    return ctx.child_content != nullptr
               ? static_cast<double>(ctx.child_content->count(driver_))
               : 0.0;
  }
  return static_cast<double>(ctx.local.count(driver_));
}

double rate_law::evaluate(const rate_ctx& ctx) const {
  if (kind_ == kind::custom) return fn_(ctx);
  if (kind_ == kind::mass_action) return a_ * ctx.combinations;  // no driver read
  return evaluate_direct(ctx.combinations, driver_count(ctx));
}

double rate_law::evaluate_direct(double combinations,
                                 double driver_count) const {
  switch (kind_) {
    case kind::mass_action:
      return a_ * combinations;
    case kind::michaelis_menten: {
      const double n = driver_count;
      return n == 0.0 ? 0.0 : a_ * n / (b_ + n);
    }
    case kind::hill_repression: {
      const double x = driver_count;
      return a_ * kn_ / (kn_ + detail::hill_pow(x, c_, exp_));
    }
    case kind::hill_activation: {
      const double x = driver_count;
      // n == 0 degenerates to the constant a/2 even at x == 0 (x^0 == 1);
      // only n > 0 makes a zero driver count shut the law off.
      if (x == 0.0 && c_ > 0.0) return 0.0;
      const double xn = detail::hill_pow(x, c_, exp_);
      return a_ * xn / (kn_ + xn);
    }
    case kind::custom:
      break;
  }
  util::expects(false, "evaluate_direct has no closed form for custom laws");
  return 0.0;
}

double rate_law::evaluate_continuous(std::span<const double> y,
                                     double mass_action_product) const {
  switch (kind_) {
    case kind::mass_action:
      return a_ * mass_action_product;
    case kind::michaelis_menten: {
      const double n = driver_ < y.size() ? y[driver_] : 0.0;
      return a_ * n / (b_ + n);
    }
    case kind::hill_repression: {
      const double x = driver_ < y.size() ? y[driver_] : 0.0;
      return a_ * kn_ / (kn_ + std::pow(x, c_));
    }
    case kind::hill_activation: {
      const double x = driver_ < y.size() ? y[driver_] : 0.0;
      if (x <= 0.0) return 0.0;
      const double xn = std::pow(x, c_);
      return a_ * xn / (kn_ + xn);
    }
    case kind::custom:
      break;
  }
  throw std::logic_error("custom rate laws have no deterministic form");
}

}  // namespace cwc
