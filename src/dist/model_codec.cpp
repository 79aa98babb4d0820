#include "dist/model_codec.hpp"

#include <string>
#include <utility>

#include "util/check.hpp"

namespace dist {

namespace {

// Frame kind byte following the schema header.
constexpr std::uint8_t kTreeModel = 1;
constexpr std::uint8_t kFlatModel = 2;

// ---- rate laws ---------------------------------------------------------

void write_law(archive_writer& w, const cwc::rate_law& law) {
  using kind = cwc::rate_law::kind;
  util::expects(law.law_kind() != kind::custom,
                "custom rate laws cannot cross the wire");
  w.put<std::uint8_t>(static_cast<std::uint8_t>(law.law_kind()));
  switch (law.law_kind()) {
    case kind::mass_action:
      w.put<double>(law.param_a());
      break;
    case kind::michaelis_menten:
      w.put<double>(law.param_a());
      w.put<double>(law.param_b());
      w.put<cwc::species_id>(law.driver());
      w.put<std::uint8_t>(law.driver_in_child() ? 1 : 0);
      break;
    case kind::hill_repression:
    case kind::hill_activation:
      w.put<double>(law.param_a());
      w.put<double>(law.param_b());
      w.put<double>(law.param_c());
      w.put<cwc::species_id>(law.driver());
      w.put<std::uint8_t>(law.driver_in_child() ? 1 : 0);
      break;
    case kind::custom:
      break;  // unreachable (guarded above)
  }
}

cwc::rate_law read_law(archive_reader& r) {
  using kind = cwc::rate_law::kind;
  switch (static_cast<kind>(r.get<std::uint8_t>())) {
    case kind::mass_action:
      return cwc::rate_law::mass_action(r.get<double>());
    case kind::michaelis_menten: {
      const double vmax = r.get<double>();
      const double km = r.get<double>();
      const auto driver = r.get<cwc::species_id>();
      const bool in_child = r.get<std::uint8_t>() != 0;
      return cwc::rate_law::michaelis_menten(vmax, km, driver, in_child);
    }
    case kind::hill_repression: {
      const double v = r.get<double>();
      const double k = r.get<double>();
      const double n = r.get<double>();
      const auto driver = r.get<cwc::species_id>();
      const bool in_child = r.get<std::uint8_t>() != 0;
      return cwc::rate_law::hill_repression(v, k, n, driver, in_child);
    }
    case kind::hill_activation: {
      const double v = r.get<double>();
      const double k = r.get<double>();
      const double n = r.get<double>();
      const auto driver = r.get<cwc::species_id>();
      const bool in_child = r.get<std::uint8_t>() != 0;
      return cwc::rate_law::hill_activation(v, k, n, driver, in_child);
    }
    case kind::custom:
      break;
  }
  throw std::runtime_error("model frame: unknown rate-law kind");
}

// ---- multisets and terms ----------------------------------------------

void write_multiset(archive_writer& w, const cwc::multiset& ms) {
  w.put<std::uint64_t>(ms.universe());
  w.put<std::uint64_t>(ms.distinct());
  ms.for_each([&](cwc::species_id s, std::uint64_t n) {
    w.put<cwc::species_id>(s);
    w.put<std::uint64_t>(n);
  });
}

/// A multiset over the frame's `species` table: its universe and every id
/// are checked against the table before anything is allocated or grown.
cwc::multiset read_multiset(archive_reader& r, std::uint64_t species) {
  const auto universe = r.get<std::uint64_t>();
  if (universe > species)
    throw std::runtime_error("model frame: multiset universe " +
                             std::to_string(universe) + " exceeds " +
                             std::to_string(species) + " species");
  cwc::multiset ms(static_cast<std::size_t>(universe));
  const auto distinct = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < distinct; ++i) {
    const auto s = r.get<cwc::species_id>();
    const auto n = r.get<std::uint64_t>();
    if (s >= species)
      throw std::runtime_error(
          "model frame: multiset names undeclared species " +
          std::to_string(s));
    ms.set(s, n);
  }
  return ms;
}

void write_term(archive_writer& w, const cwc::compartment& c) {
  w.put<cwc::comp_type_id>(c.type());
  write_multiset(w, c.wrap());
  write_multiset(w, c.content());
  w.put<std::uint64_t>(c.num_children());
  for (const auto& child : c.children()) write_term(w, *child);
}

std::unique_ptr<cwc::compartment> read_term(archive_reader& r,
                                            std::uint64_t species) {
  const auto type = r.get<cwc::comp_type_id>();
  auto wrap = read_multiset(r, species);
  auto content = read_multiset(r, species);
  auto c = std::make_unique<cwc::compartment>(type, std::move(wrap),
                                              std::move(content));
  const auto n = r.get<std::uint64_t>();
  // Nesting consumes wire bytes per level, so depth is bounded by the
  // buffer size the reader already validated.
  for (std::uint64_t i = 0; i < n; ++i) c->add_child(read_term(r, species));
  return c;
}

// ---- rules -------------------------------------------------------------

void write_rule(archive_writer& w, const cwc::rule& r) {
  w.put_string(r.name());
  w.put<cwc::comp_type_id>(r.context());
  write_law(w, r.law());
  write_multiset(w, r.reactants());
  w.put<std::uint8_t>(r.child_pattern().has_value() ? 1 : 0);
  if (r.child_pattern().has_value()) {
    w.put<cwc::comp_type_id>(r.child_pattern()->type);
    write_multiset(w, r.child_pattern()->wrap_req);
    write_multiset(w, r.child_pattern()->content_req);
  }
  write_multiset(w, r.products());
  write_multiset(w, r.child_products());
  w.put<std::uint64_t>(r.new_compartments().size());
  for (const cwc::comp_product& p : r.new_compartments()) {
    w.put<cwc::comp_type_id>(p.type);
    write_multiset(w, p.wrap);
    write_multiset(w, p.content);
  }
  w.put<std::uint8_t>(static_cast<std::uint8_t>(r.fate()));
}

cwc::rule read_rule(archive_reader& r, std::uint64_t species) {
  std::string name = r.get_string();
  const auto context = r.get<cwc::comp_type_id>();
  cwc::rule rr(std::move(name), context, read_law(r));

  // Rebuild through the builder calls the original model used: re-adding
  // the serialized entries reproduces the multisets count-for-count.
  read_multiset(r, species).for_each([&](cwc::species_id s, std::uint64_t n) {
    rr.consume(s, n);
  });
  if (r.get<std::uint8_t>() != 0) {
    cwc::comp_pattern pat;
    pat.type = r.get<cwc::comp_type_id>();
    pat.wrap_req = read_multiset(r, species);
    pat.content_req = read_multiset(r, species);
    rr.match_child(std::move(pat));
  }
  read_multiset(r, species).for_each([&](cwc::species_id s, std::uint64_t n) {
    rr.produce(s, n);
  });
  read_multiset(r, species).for_each([&](cwc::species_id s, std::uint64_t n) {
    rr.produce_in_child(s, n);
  });
  const auto n_new = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_new; ++i) {
    cwc::comp_product p;
    p.type = r.get<cwc::comp_type_id>();
    p.wrap = read_multiset(r, species);
    p.content = read_multiset(r, species);
    rr.create_compartment(std::move(p));
  }
  const auto fate = r.get<std::uint8_t>();
  if (fate > static_cast<std::uint8_t>(cwc::child_fate::remove))
    throw std::runtime_error("model frame: unknown child fate");
  rr.set_child_fate(static_cast<cwc::child_fate>(fate));
  return rr;
}

// ---- whole models ------------------------------------------------------

void write_symbols(archive_writer& w, const cwc::symbol_table& t) {
  w.put<std::uint64_t>(t.size());
  for (std::uint32_t i = 0; i < t.size(); ++i) w.put_string(t.name(i));
}

void write_tree_model(archive_writer& w, const cwc::model& m) {
  write_symbols(w, m.species());
  write_symbols(w, m.compartment_types());
  w.put<std::uint64_t>(m.rules().size());
  for (const cwc::rule& r : m.rules()) write_rule(w, r);
  write_term(w, m.initial());
  w.put<std::uint64_t>(m.observables().size());
  for (const cwc::observable& o : m.observables()) {
    w.put_string(o.name);
    w.put<cwc::species_id>(o.sp);
    w.put<std::uint8_t>(o.scope.has_value() ? 1 : 0);
    if (o.scope.has_value()) w.put<cwc::comp_type_id>(*o.scope);
  }
}

cwc::model read_tree_model(archive_reader& r) {
  cwc::model m;
  const auto n_species = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_species; ++i) {
    const auto id = m.declare_species(r.get_string());
    if (id != i) throw std::runtime_error("model frame: duplicate species");
  }
  const auto n_types = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_types; ++i) {
    // Index 0 is the implicit "top" the model constructor already interned;
    // re-interning it maps back to id 0, keeping ids aligned.
    const auto id = m.declare_compartment_type(r.get_string());
    if (id != i)
      throw std::runtime_error("model frame: compartment types out of order");
  }
  const auto n_rules = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_rules; ++i)
    m.add_rule(read_rule(r, n_species));
  m.set_initial(read_term(r, n_species));
  const auto n_obs = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_obs; ++i) {
    std::string name = r.get_string();
    const auto sp = r.get<cwc::species_id>();
    std::optional<cwc::comp_type_id> scope;
    if (r.get<std::uint8_t>() != 0) scope = r.get<cwc::comp_type_id>();
    m.add_observable(std::move(name), sp, scope);
  }
  return m;
}

void write_flat_model(archive_writer& w, const cwc::reaction_network& n) {
  write_symbols(w, n.species());
  w.put<std::uint64_t>(n.reactions().size());
  for (const cwc::reaction& rx : n.reactions()) {
    w.put_string(rx.name);
    write_law(w, rx.law);
    w.put_vector(rx.reactants);  // stoich is trivially copyable
    w.put_vector(rx.products);
  }
  w.put_vector(n.initial());
}

cwc::reaction_network read_flat_model(archive_reader& r) {
  cwc::reaction_network net;
  const auto n_species = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_species; ++i) {
    const auto id = net.declare_species(r.get_string());
    if (id != i) throw std::runtime_error("model frame: duplicate species");
  }
  const auto n_reactions = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_reactions; ++i) {
    std::string name = r.get_string();
    auto law = read_law(r);
    auto reactants = r.get_vector<cwc::stoich>();
    auto products = r.get_vector<cwc::stoich>();
    net.add_reaction(std::move(name), std::move(reactants), std::move(products),
                     std::move(law));
  }
  const auto initial = r.get_vector<std::uint64_t>();
  for (cwc::species_id s = 0; s < initial.size(); ++s)
    net.set_initial(s, initial[s]);
  return net;
}

}  // namespace

bool wire_encodable(const cwcsim::model_ref& model) noexcept {
  if (model.tree != nullptr) {
    for (const cwc::rule& r : model.tree->rules())
      if (r.law().law_kind() == cwc::rate_law::kind::custom) return false;
    return true;
  }
  if (model.flat != nullptr) {
    for (const cwc::reaction& rx : model.flat->reactions())
      if (rx.law.law_kind() == cwc::rate_law::kind::custom) return false;
    return true;
  }
  return false;
}

byte_buffer encode_model(const cwcsim::model_ref& model) {
  util::expects(model.tree != nullptr || model.flat != nullptr,
                "encode_model requires a model");
  util::expects(wire_encodable(model),
                "model is not wire-encodable (custom rate law)");
  archive_writer w;
  put_schema_header(w);
  if (model.tree != nullptr) {
    w.put<std::uint8_t>(kTreeModel);
    write_tree_model(w, *model.tree);
  } else {
    w.put<std::uint8_t>(kFlatModel);
    write_flat_model(w, *model.flat);
  }
  return w.take();
}

std::uint64_t model_fingerprint(const byte_buffer& frame) noexcept {
  // FNV-1a, 64-bit. Not cryptographic: the cache layer guards against the
  // astronomically unlikely collision by comparing frames byte-for-byte on
  // a hash hit before sharing an artifact.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : frame) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::shared_ptr<const cwc::compiled_model> decode_model(
    const byte_buffer& bytes) {
  archive_reader r(bytes);
  check_schema_header(r);
  const auto frame_kind = r.get<std::uint8_t>();
  std::shared_ptr<const cwc::compiled_model> cm;
  switch (frame_kind) {
    case kTreeModel:
      cm = cwc::compiled_model::compile(read_tree_model(r));
      break;
    case kFlatModel:
      cm = cwc::compiled_model::compile(read_flat_model(r));
      break;
    default:
      throw std::runtime_error("model frame: unknown model kind");
  }
  if (!r.exhausted())
    throw std::runtime_error("model frame: trailing bytes after model");
  return cm;
}

}  // namespace dist
