// Multisets of atomic species over a fixed alphabet — the building block of
// CWC terms (both compartment contents and membranes/wraps are multisets).
#pragma once

#include <cstdint>
#include <vector>

#include "cwc/species.hpp"

namespace cwc {

class multiset {
 public:
  multiset() = default;

  /// Empty multiset over an alphabet of `universe` species.
  explicit multiset(std::size_t universe) : counts_(universe, 0) {}

  std::size_t universe() const noexcept { return counts_.size(); }

  /// The dense count row, universe() entries indexed by species id, for a
  /// hot loop that reads and writes counts without count()/add()/remove().
  std::uint64_t* row() noexcept { return counts_.data(); }
  const std::uint64_t* row() const noexcept { return counts_.data(); }

  /// Widen the universe to at least `n` species (new counts are zero), so
  /// that row() may be read at any id below `n`.
  void grow_to(std::size_t n);

  std::uint64_t count(species_id s) const;

  /// Total number of atoms (with multiplicity).
  std::uint64_t total() const noexcept;

  /// Number of distinct species present.
  std::size_t distinct() const noexcept;

  bool is_empty() const noexcept { return total() == 0; }

  void add(species_id s, std::uint64_t n = 1);

  /// Remove n copies; throws util::precondition_error when fewer are present.
  void remove(species_id s, std::uint64_t n = 1);

  void set(species_id s, std::uint64_t n);

  /// True when every species count in `sub` is <= the count here.
  bool contains(const multiset& sub) const;

  void add_all(const multiset& other);

  /// Remove other from this; throws when not contained.
  void remove_all(const multiset& other);

  bool operator==(const multiset& other) const;

  /// Iterate non-zero entries: f(species_id, count).
  template <typename F>
  void for_each(F&& f) const {
    for (species_id s = 0; s < counts_.size(); ++s)
      if (counts_[s] != 0) f(s, counts_[s]);
  }

 private:
  std::vector<std::uint64_t> counts_;
};

/// C(n, k) as double (k expected small); 0 when k > n.
inline double choose(std::uint64_t n, std::uint64_t k) noexcept {
  if (k > n) return 0.0;
  // Small-k fast paths: k <= 2 covers almost every stochiometry in the
  // model library, and the hot matching loops call this per species.
  if (k == 0) return 1.0;
  if (k == 1) return static_cast<double>(n);
  if (k == 2) return static_cast<double>(n) * (static_cast<double>(n - 1) / 2.0);
  double r = 1.0;
  for (std::uint64_t i = 0; i < k; ++i) {
    r *= static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  return r;
}

}  // namespace cwc
