// Counter-based random number generation for reproducible parallel Monte
// Carlo.
//
// Every trajectory owns an independent stream keyed by (seed, stream id), so
// simulation results are bit-for-bit identical regardless of how trajectories
// are scheduled across workers, hosts, or (simulated) GPU lanes. This is the
// property the multicore == distributed == SIMT equivalence tests rely on.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace util {

/// SplitMix64 — tiny, fast, full-period 64-bit mixer (Steele et al.,
/// OOPSLA'14). Keys every stream and seeds its generator.
class splitmix64 {
 public:
  using result_type = std::uint64_t;

  explicit splitmix64(std::uint64_t seed) noexcept : state_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) — the workhorse generator.
/// Seeded through SplitMix64 as its authors recommend.
class xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  explicit xoshiro256ss(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    splitmix64 sm(seed);
    for (auto& s : s_) s = sm();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// An independent random stream identified by (global seed, stream id).
/// Trajectory `i` of a simulation run always draws from stream
/// (seed, i) — independent of which worker executes it.
class rng_stream {
 public:
  rng_stream() noexcept : rng_(0) {}

  rng_stream(std::uint64_t seed, std::uint64_t stream_id) noexcept
      : rng_(mix(seed, stream_id)) {}

  /// Uniform in [0, 2^64).
  std::uint64_t next_u64() noexcept { return rng_(); }

  /// Uniform double in (0, 1] — never returns 0, safe for log().
  double next_uniform_pos() noexcept {
    // 53 random bits; +1 shifts the support away from zero.
    const std::uint64_t bits = (rng_() >> 11) + 1;
    return static_cast<double>(bits) * 0x1.0p-53;
  }

  /// Uniform double in [0, 1).
  double next_uniform() noexcept {
    return static_cast<double>(rng_() >> 11) * 0x1.0p-53;
  }

  /// Exponential with rate `lambda` (mean 1/lambda). Requires lambda > 0.
  double next_exponential(double lambda) {
    expects(lambda > 0.0, "exponential rate must be positive");
    return -std::log(next_uniform_pos()) / lambda;
  }

  /// Uniform integer in [0, n). Requires n > 0. Lemire-style rejection-free
  /// approximation is unnecessary here; modulo bias is negligible for the
  /// small n used in reaction selection, but we still debias for rigor.
  std::uint64_t next_below(std::uint64_t n) {
    expects(n > 0, "next_below requires n > 0");
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = rng_();
      if (r >= threshold) return r % n;
    }
  }

  /// Standard normal via Marsaglia polar method.
  double next_normal() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = 2.0 * next_uniform() - 1.0;
      v = 2.0 * next_uniform() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    have_spare_ = true;
    return u * m;
  }

 private:
  static std::uint64_t mix(std::uint64_t seed, std::uint64_t stream_id) noexcept {
    // Feed both through SplitMix so that nearby (seed, id) pairs decorrelate.
    splitmix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1)));
    (void)sm();
    return sm();
  }

  xoshiro256ss rng_;
  double spare_ = 0.0;
  bool have_spare_ = false;
};

/// A bank of N independent streams in structure-of-arrays layout — the
/// batch engine's lane RNGs. Lane i of rng_lane_bank(seed, first_id, n) is
/// the EXACT stream rng_stream(seed, first_id + i): same SplitMix key
/// derivation, same xoshiro256** seeding and update, so every lane draw is
/// bit-identical to the scalar stream a standalone engine for that
/// trajectory would own, regardless of whether it is drawn through the
/// per-lane scalar entry points or the lane-strided batch fill.
///
/// The SoA state (four u64 strips indexed by lane) is what makes the batch
/// fill auto-vectorizable: when every lane draws (the common lockstep
/// round), the update runs lane-innermost over contiguous arrays. A sparse
/// subset of lanes falls back to a per-listed-lane scalar loop over the
/// same state words — the per-lane value sequence is identical either way,
/// only instruction scheduling differs.
class rng_lane_bank {
 public:
  rng_lane_bank() = default;

  rng_lane_bank(std::uint64_t seed, std::uint64_t first_id, std::size_t n)
      : s0_(n), s1_(n), s2_(n), s3_(n) {
    for (std::size_t i = 0; i < n; ++i)
      seed_lane(i, seed, first_id + static_cast<std::uint64_t>(i));
  }

  /// Explicit-ids form: lane i owns the exact stream rng_stream(seed,
  /// ids[i]). Sweep batches pack lanes from different parameter cells whose
  /// trajectory ids restart per cell, so consecutive lanes no longer map to
  /// consecutive stream ids.
  rng_lane_bank(std::uint64_t seed, const std::vector<std::uint64_t>& ids)
      : s0_(ids.size()), s1_(ids.size()), s2_(ids.size()), s3_(ids.size()) {
    for (std::size_t i = 0; i < ids.size(); ++i) seed_lane(i, seed, ids[i]);
  }

  std::size_t size() const noexcept { return s0_.size(); }

  /// Uniform in [0, 2^64) from lane `i`'s stream.
  std::uint64_t next_u64(std::size_t i) noexcept { return advance(i); }

  /// Uniform double in (0, 1] from lane `i`'s stream (rng_stream's
  /// next_uniform_pos: 53 bits, support shifted off zero for log()).
  double next_uniform_pos(std::size_t i) noexcept {
    return to_uniform_pos(advance(i));
  }

  /// Dense batch draw: out[i] = next_uniform_pos(i) for EVERY lane — the
  /// lane-innermost loop over the contiguous state strips that the
  /// compiler auto-vectorizes. Use when a lockstep round draws on all
  /// lanes (the common case); per-lane values are bit-identical to the
  /// scalar entry points.
  void fill_uniform_pos_all(double* out) noexcept {
    const std::size_t n = size();
    std::uint64_t* __restrict__ s0 = s0_.data();
    std::uint64_t* __restrict__ s1 = s1_.data();
    std::uint64_t* __restrict__ s2 = s2_.data();
    std::uint64_t* __restrict__ s3 = s3_.data();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t r = rotl(s1[i] * 5, 7) * 9;
      const std::uint64_t t = s1[i] << 17;
      s2[i] ^= s0[i];
      s3[i] ^= s1[i];
      s1[i] ^= s2[i];
      s0[i] ^= s3[i];
      s2[i] ^= t;
      s3[i] = rotl(s3[i], 45);
      out[i] = to_uniform_pos(r);
    }
  }

  /// Subset batch draw: out[j] = next_uniform_pos(lanes[j]) for j in
  /// [0, m). Lanes not listed do not advance; listed lanes must be
  /// distinct (each stream advances exactly once). Scalar loop — sparse
  /// lane subsets gather across the strips, which does not vectorize
  /// profitably; the value sequence per lane is identical either way.
  void fill_uniform_pos(const std::uint32_t* lanes, std::size_t m,
                        double* out) noexcept {
    for (std::size_t j = 0; j < m; ++j) out[j] = next_uniform_pos(lanes[j]);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  static double to_uniform_pos(std::uint64_t r) noexcept {
    return static_cast<double>((r >> 11) + 1) * 0x1.0p-53;
  }

  /// rng_stream's seeding chain, verbatim: key = mix(seed, id), then
  /// xoshiro256ss seeded through SplitMix64(key).
  void seed_lane(std::size_t i, std::uint64_t seed, std::uint64_t id) noexcept {
    splitmix64 keyer(seed ^ (0x9e3779b97f4a7c15ULL * (id + 1)));
    (void)keyer();
    splitmix64 sm(keyer());
    s0_[i] = sm();
    s1_[i] = sm();
    s2_[i] = sm();
    s3_[i] = sm();
  }

  /// xoshiro256** update on lane `i`'s state words (the scalar generator's
  /// operator(), over strided storage).
  std::uint64_t advance(std::size_t i) noexcept {
    const std::uint64_t result = rotl(s1_[i] * 5, 7) * 9;
    const std::uint64_t t = s1_[i] << 17;
    s2_[i] ^= s0_[i];
    s3_[i] ^= s1_[i];
    s1_[i] ^= s2_[i];
    s0_[i] ^= s3_[i];
    s2_[i] ^= t;
    s3_[i] = rotl(s3_[i], 45);
    return result;
  }

  std::vector<std::uint64_t> s0_, s1_, s2_, s3_;
};

}  // namespace util
