#include "cwc/rule.hpp"

#include "util/check.hpp"

namespace cwc {

rule& rule::consume(species_id s, std::uint64_t n) {
  reactants_.add(s, n);
  return *this;
}

rule& rule::match_child(comp_pattern p) {
  util::expects(!child_pattern_.has_value(), "rule supports one child pattern");
  child_pattern_ = std::move(p);
  return *this;
}

rule& rule::produce(species_id s, std::uint64_t n) {
  products_.add(s, n);
  return *this;
}

rule& rule::produce_in_child(species_id s, std::uint64_t n) {
  util::expects(child_pattern_.has_value(),
                "produce_in_child requires a child pattern");
  child_products_.add(s, n);
  return *this;
}

rule& rule::consume_from_child(species_id s, std::uint64_t n) {
  util::expects(child_pattern_.has_value(),
                "consume_from_child requires a child pattern");
  child_pattern_->content_req.add(s, n);
  return *this;
}

rule& rule::create_compartment(comp_product c) {
  new_compartments_.push_back(std::move(c));
  return *this;
}

rule& rule::set_child_fate(child_fate f) {
  util::expects(child_pattern_.has_value() || f == child_fate::keep,
                "child fate requires a child pattern");
  fate_ = f;
  return *this;
}

void rule::apply(compartment& host, const match& m, apply_effects* fx) const {
  if (fx != nullptr) fx->reset();
  host.content().remove_all(reactants_);
  host.content().add_all(products_);

  for (const comp_product& cp : new_compartments_) {
    auto fresh = std::make_unique<compartment>(cp.type, cp.wrap, cp.content);
    host.add_child(std::move(fresh));
    if (fx != nullptr) fx->structure_changed = true;
  }

  if (!child_pattern_.has_value()) return;
  util::expects(m.child_index.has_value(), "match lacks the bound child");
  const std::size_t idx = *m.child_index;
  util::expects(idx < host.num_children(), "bound child index out of range");
  compartment& child = host.child(idx);
  util::expects(child.type() == child_pattern_->type, "bound child type changed");

  child.content().remove_all(child_pattern_->content_req);
  child.content().add_all(child_products_);

  switch (fate_) {
    case child_fate::keep:
      if (fx != nullptr) fx->bound_child = &child;
      break;
    case child_fate::dissolve: {
      auto detached = host.remove_child(idx);
      host.content().add_all(detached->content());
      host.content().add_all(detached->wrap());
      // Grandchildren float up to the host.
      while (detached->num_children() > 0) {
        host.add_child(detached->remove_child(0));
      }
      if (fx != nullptr) {
        fx->structure_changed = true;
        fx->removed = std::move(detached);  // empty shell, no children left
      }
      break;
    }
    case child_fate::remove: {
      auto detached = host.remove_child(idx);
      if (fx != nullptr) {
        fx->structure_changed = true;
        fx->removed = std::move(detached);  // whole subtree
      }
      break;
    }
  }
}

}  // namespace cwc
