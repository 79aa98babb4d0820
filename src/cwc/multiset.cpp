#include "cwc/multiset.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cwc {

std::uint64_t multiset::count(species_id s) const {
  return s < counts_.size() ? counts_[s] : 0;
}

std::uint64_t multiset::total() const noexcept {
  std::uint64_t t = 0;
  for (auto c : counts_) t += c;
  return t;
}

std::size_t multiset::distinct() const noexcept {
  std::size_t d = 0;
  for (auto c : counts_)
    if (c != 0) ++d;
  return d;
}

void multiset::grow_to(std::size_t n) {
  if (counts_.size() < n) counts_.resize(n, 0);
}

void multiset::add(species_id s, std::uint64_t n) {
  grow_to(s + 1);
  counts_[s] += n;
}

void multiset::remove(species_id s, std::uint64_t n) {
  util::expects(count(s) >= n, "multiset remove: species underflow");
  counts_[s] -= n;
}

void multiset::set(species_id s, std::uint64_t n) {
  grow_to(s + 1);
  counts_[s] = n;
}

bool multiset::contains(const multiset& sub) const {
  // Indexed loop with early exit on the first infeasible species (the
  // for_each-based sweep kept scanning after the answer was known).
  const std::size_t n = sub.counts_.size();
  for (species_id s = 0; s < n; ++s) {
    const std::uint64_t need = sub.counts_[s];
    if (need != 0 && count(s) < need) return false;
  }
  return true;
}

void multiset::add_all(const multiset& other) {
  other.for_each([&](species_id s, std::uint64_t n) { add(s, n); });
}

void multiset::remove_all(const multiset& other) {
  util::expects(contains(other), "multiset remove_all: not contained");
  const std::size_t n = other.counts_.size();
  for (species_id s = 0; s < n; ++s) {
    // Skip zeros: `other` may have a larger universe than this multiset.
    if (other.counts_[s] != 0) counts_[s] -= other.counts_[s];
  }
}

bool multiset::operator==(const multiset& other) const {
  const std::size_t n = std::max(counts_.size(), other.counts_.size());
  for (species_id s = 0; s < n; ++s)
    if (count(s) != other.count(s)) return false;
  return true;
}

}  // namespace cwc
