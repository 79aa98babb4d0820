#include "cwc/reaction_network.hpp"

#include <string>

#include "util/check.hpp"

namespace cwc {

namespace {

[[noreturn]] void undeclared(const std::string& where, species_id sp) {
  throw util::precondition_error("precondition violated: " + where +
                                 " names undeclared species " +
                                 std::to_string(sp));
}

}  // namespace

void reaction_network::set_initial(species_id sp, std::uint64_t n) {
  if (sp >= species_.size()) undeclared("set_initial", sp);
  if (initial_.size() <= sp) initial_.resize(sp + 1, 0);
  initial_[sp] = n;
}

std::size_t reaction_network::add_reaction(std::string name,
                                           std::vector<stoich> reactants,
                                           std::vector<stoich> products,
                                           rate_law law) {
  for (std::size_t i = 0; i < reactants.size(); ++i) {
    util::expects(reactants[i].sp < species_.size(),
                  "reaction names an undeclared reactant species");
    for (std::size_t k = 0; k < i; ++k)
      util::expects(reactants[k].sp != reactants[i].sp,
                    "reaction names a reactant species twice");
  }
  for (const stoich& s : products)
    util::expects(s.sp < species_.size(),
                  "reaction names an undeclared product species");
  if (!law.is_mass_action() && law.law_kind() != rate_law::kind::custom &&
      law.driver() >= species_.size())
    undeclared("reaction '" + name + "' rate law", law.driver());
  reactions_.push_back(
      reaction{std::move(name), std::move(reactants), std::move(products),
               std::move(law)});
  return reactions_.size() - 1;
}

multiset reaction_network::make_initial_state() const {
  multiset m(species_.size());
  for (species_id s = 0; s < initial_.size(); ++s)
    if (initial_[s] != 0) m.set(s, initial_[s]);
  return m;
}

}  // namespace cwc
