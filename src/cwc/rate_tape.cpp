#include "cwc/rate_tape.hpp"

#include "cwc/model.hpp"
#include "util/check.hpp"

namespace cwc {

rate_tape rate_tape::compile(const model& m) {
  rate_tape t;
  t.progs_.reserve(m.rules().size());
  for (const rule& r : m.rules()) {
    tape_program pg;
    pg.first_op = static_cast<std::uint32_t>(t.ops_.size());
    // Segments in host -> wrap -> child order; multiset::for_each visits
    // species ascending.
    const auto emit = [&t](const multiset& ms) {
      const std::size_t n0 = t.ops_.size();
      ms.for_each([&t](species_id s, std::uint64_t k) {
        util::expects(k <= 0xffffffffULL, "tape op multiplicity overflow");
        t.ops_.push_back({s, static_cast<std::uint32_t>(k)});
      });
      const std::size_t emitted = t.ops_.size() - n0;
      util::expects(emitted <= 0xffff, "tape segment overflow");
      return static_cast<std::uint16_t>(emitted);
    };
    pg.n_host = emit(r.reactants());
    if (r.child_pattern().has_value()) {
      pg.has_child = true;
      pg.child_type = r.child_pattern()->type;
      pg.n_wrap = emit(r.child_pattern()->wrap_req);
      pg.n_child = emit(r.child_pattern()->content_req);
    }

    const rate_law& law = r.law();
    switch (law.law_kind()) {
      case rate_law::kind::mass_action:
        pg.head = tape_head::mass_action;
        break;
      case rate_law::kind::michaelis_menten:
        pg.head = tape_head::michaelis_menten;
        pg.has_driver = true;
        break;
      case rate_law::kind::hill_repression:
        pg.head = tape_head::hill_repression;
        pg.has_driver = true;
        break;
      case rate_law::kind::hill_activation:
        pg.head = tape_head::hill_activation;
        pg.has_driver = true;
        break;
      case rate_law::kind::custom:
        pg.head = tape_head::custom;
        break;
    }
    pg.a = law.param_a();
    pg.b = law.param_b();
    pg.n = law.param_c();
    pg.kn = law.param_kn();
    pg.hill_exp = law.hill_int_exp();
    pg.driver = law.driver();
    pg.driver_in_child = law.driver_in_child();
    t.progs_.push_back(pg);
  }
  return t;
}

}  // namespace cwc
