// Flat (compartment-free) reaction networks — the classic Gillespie setting
// and our StochKit-like baseline. Used to cross-validate the CWC engine
// (a flattened model must match the compartmentalised one statistically),
// to feed the ODE integrator, and for engine micro-benchmarks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cwc/multiset.hpp"
#include "cwc/rate_law.hpp"
#include "cwc/species.hpp"

namespace cwc {

struct stoich {
  species_id sp = 0;
  std::uint32_t n = 1;
};

struct reaction {
  std::string name;
  std::vector<stoich> reactants;
  std::vector<stoich> products;
  rate_law law;
};

class reaction_network {
 public:
  species_id declare_species(std::string_view name) { return species_.intern(name); }
  const symbol_table& species() const noexcept { return species_; }
  std::size_t num_species() const noexcept { return species_.size(); }

  /// Initial copy number of a declared species; throws
  /// util::precondition_error naming an undeclared one.
  void set_initial(species_id sp, std::uint64_t n);
  const std::vector<std::uint64_t>& initial() const noexcept { return initial_; }

  /// Add `reactants -> products @ law`; returns the reaction index. Every
  /// species must be declared, the driver of a Michaelis-Menten or Hill law
  /// too, and a reactant species may appear once (its count carries the
  /// multiplicity): flat_engine fires a reaction by unchecked updates to
  /// its dense count row.
  std::size_t add_reaction(std::string name, std::vector<stoich> reactants,
                           std::vector<stoich> products, rate_law law);

  const std::vector<reaction>& reactions() const noexcept { return reactions_; }
  /// Mutable access for the compiled_model overlay layer, which patches
  /// rate constants in an owned copy; not part of the model-building API.
  std::vector<reaction>& reactions_mut() noexcept { return reactions_; }

  /// Initial state as a multiset sized to the species universe.
  multiset make_initial_state() const;

 private:
  symbol_table species_;
  std::vector<reaction> reactions_;
  std::vector<std::uint64_t> initial_;
};

}  // namespace cwc
