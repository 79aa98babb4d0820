#include "cwc/batch/batch_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "cwc/sampling.hpp"
#include "util/check.hpp"

namespace cwc::batch {

namespace {

/// FNV-1a over the shape key words.
std::uint64_t hash_key(const std::vector<std::uint64_t>& key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t w : key) {
    h ^= w;
    h *= 0x100000001b3ULL;
    h ^= w >> 32;
    h *= 0x100000001b3ULL;
  }
  return h;
}

kernel_mode resolve_mode(kernel_mode requested) {
  if (requested != kernel_mode::automatic) return requested;
  const char* env = std::getenv("CWCSIM_BATCH_KERNEL");
  if (env != nullptr && std::strcmp(env, "scalar") == 0)
    return kernel_mode::scalar;
  return kernel_mode::wide;
}

}  // namespace

bool batch_engine::supports(const compiled_model& cm) {
  if (!cm.is_tree()) return false;
  // The lanes evaluate every rule through the tape, which has no closed
  // form for a custom law.
  const rate_tape& tape = cm.tape();
  for (std::size_t j = 0; j < tape.num_programs(); ++j)
    if (tape.program(j).head == tape_head::custom) return false;
  return true;
}

namespace {

std::vector<batch_engine::lane_desc> iota_lanes(std::uint64_t first,
                                                std::size_t width) {
  std::vector<batch_engine::lane_desc> lanes(width);
  for (std::size_t i = 0; i < width; ++i)
    lanes[i] = {first + static_cast<std::uint64_t>(i), 0};
  return lanes;
}

}  // namespace

batch_engine::batch_engine(std::shared_ptr<const compiled_model> cm,
                           std::uint64_t seed,
                           std::uint64_t first_trajectory_id,
                           std::size_t width, kernel_mode mode)
    : batch_engine(
          std::vector<std::shared_ptr<const compiled_model>>{std::move(cm)},
          seed, iota_lanes(first_trajectory_id, width), mode) {}

batch_engine::batch_engine(
    std::vector<std::shared_ptr<const compiled_model>> cells,
    std::uint64_t seed, std::vector<lane_desc> lanes, kernel_mode mode) {
  util::expects(!cells.empty(), "batch_engine needs at least one sweep cell");
  util::expects(!lanes.empty(), "batch_engine needs at least one lane");
  for (const auto& c : cells) {
    util::expects(c != nullptr && c->is_tree(),
                  "batch_engine needs a compiled tree model");
    util::expects(supports(*c),
                  "batch_engine cannot evaluate custom rate laws");
    // One structural root across cells: overlays share their base's model
    // pointer, so tree() equality is exactly "same structure, same shape
    // classes, same match schedules".
    util::expects(c->tree() == cells.front()->tree(),
                  "sweep cells must be rate overlays of one model");
  }
  cells_ = std::move(cells);
  cm_ = cells_.front();
  multi_cell_ = cells_.size() > 1;
  const std::size_t width = lanes.size();
  lane_ids_.resize(width);
  lane_cell_.resize(width);
  for (std::size_t i = 0; i < width; ++i) {
    util::expects(lanes[i].cell < cells_.size(),
                  "lane cell index out of range");
    lane_ids_[i] = lanes[i].trajectory_id;
    lane_cell_[i] = lanes[i].cell;
  }
  num_species_ = cm_->num_species();
  num_rules_ = cm_->num_rules();
  tape_ = &cm_->tape();
  cell_tapes_.resize(cells_.size());
  cell_a_.resize(cells_.size() * num_rules_);
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    cell_tapes_[c] = &cells_[c]->tape();
    for (std::size_t j = 0; j < num_rules_; ++j)
      cell_a_[c * num_rules_ + j] = cell_tapes_[c]->program(j).a;
  }

  use_wide_ = resolve_mode(mode) == kernel_mode::wide;
  // Row sweeps go wide once this many lanes dirtied the same row: the wide
  // kernel re-evaluates all `width` columns, so the break-even point is a
  // fixed SIMD-width-ish cost divided across the dirty lanes. Scalar mode
  // pins the thresholds unreachably high — the fallback kernel by
  // construction.
  if (use_wide_) {
    wide_eval_min_ = std::max<std::size_t>(3, width / 8);
    wide_fold_min_ = std::max<std::size_t>(2, width / 8);
    wide_total_min_ = std::max<std::size_t>(2, width / 8);
    // Flood threshold: past this many fires into one pool in one round,
    // per-fire mask marking costs more than just sweeping the whole pool
    // wide at flush. Scalar mode never floods — a blanket per-column
    // re-evaluation would be strictly more scalar work, not less.
    flood_min_ = std::max<std::size_t>(6, width / 4);
  } else {
    wide_eval_min_ = wide_fold_min_ = wide_total_min_ = SIZE_MAX;
    flood_min_ = SIZE_MAX;
  }
  // Drain density is a control-flow threshold, not a kernel threshold: it
  // stays the same under the forced-scalar fallback so both modes walk the
  // same code shape (only the row sweeps differ).
  drain_density_ = std::max<std::size_t>(2, width / 8);

  build_plans();

  // Lane arrays first: pools size their strips off width().
  lane_pool_.assign(width, nullptr);
  lane_col_.assign(width, 0);

  // Shared initial shape: one pre-order walk of the model's initial term.
  std::vector<shape_class::node> nodes;
  std::vector<std::vector<std::uint32_t>> kids;
  std::vector<const compartment*> comps;  // pre-order, aligned with nodes
  struct walker {
    std::vector<shape_class::node>* nodes;
    std::vector<std::vector<std::uint32_t>>* kids;
    std::vector<const compartment*>* comps;
    std::uint32_t walk(const compartment& c, std::int32_t parent) {
      const auto idx = static_cast<std::uint32_t>(nodes->size());
      nodes->push_back({c.type(), parent});
      kids->emplace_back();
      comps->push_back(&c);
      for (std::size_t i = 0; i < c.num_children(); ++i) {
        const std::uint32_t ci =
            walk(c.child(i), static_cast<std::int32_t>(idx));
        (*kids)[idx].push_back(ci);
      }
      return idx;
    }
  };
  walker{&nodes, &kids, &comps}.walk(cm_->tree()->initial(), -1);
  const shape_class* cls = intern_class(nodes, kids);
  // Every lane starts here: size the initial pool for the full batch.
  class_pool& P = pool_for(cls, width);

  // Dense prototype column (stride 1), then broadcast across the strip —
  // every lane starts from the identical initial state.
  const std::size_t n = cls->nodes.size();
  std::vector<std::uint64_t> pc(n * num_species_, 0);
  std::vector<std::uint64_t> pw(n * num_species_, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (species_id s = 0; s < num_species_; ++s) {
      pc[i * num_species_ + s] = comps[i]->content().count(s);
      pw[i * num_species_ + s] = comps[i]->wrap().count(s);
    }
  }
  std::vector<double> pp(cls->matches.size(), 0.0);
  for (std::uint32_t mi = 0; mi < cls->matches.size(); ++mi)
    pp[mi] = eval_match_dense(*tape_, *cls, mi, pc.data(), pw.data());
  std::vector<double> pb(n, 0.0);
  for (std::uint32_t b = 0; b < n; ++b) {
    double sub = 0.0;
    const std::uint32_t first = cls->block_first[b];
    for (std::uint32_t mi = first; mi < first + cls->block_count[b]; ++mi)
      sub += pp[mi];
    pb[b] = sub;
  }

  for (std::size_t l = 0; l < width; ++l) {
    lane_pool_[l] = &P;
    lane_col_[l] = alloc_col(P);
  }
  const std::size_t cap = P.cap;
  for (std::size_t r = 0; r < n * num_species_; ++r) {
    std::fill_n(&P.content[r * cap], cap, pc[r]);
    std::fill_n(&P.wrap[r * cap], cap, pw[r]);
  }
  for (std::size_t mi = 0; mi < cls->matches.size(); ++mi)
    std::fill_n(&P.prop[mi * cap], cap, pp[mi]);
  for (std::size_t b = 0; b < n; ++b)
    std::fill_n(&P.block_sub[b * cap], cap, pb[b]);

  for (std::size_t l = 0; l < width; ++l)
    P.cell_of[lane_col_[l]] = lane_cell_[l];
  if (multi_cell_) {
    // The proto props carry cell 0's constants. The counts ARE shared (the
    // initial term is structural), so overlay-cell columns just re-evaluate
    // their prop rows through their own tape and refold the subtotals.
    for (std::size_t l = 0; l < width; ++l) {
      if (lane_cell_[l] == 0) continue;
      const std::uint32_t col = lane_col_[l];
      for (std::uint32_t mi = 0; mi < cls->matches.size(); ++mi)
        P.prop[std::size_t{mi} * cap + col] = eval_match_pool(P, mi, col);
      for (std::uint32_t b = 0; b < n; ++b) resum_block_col(P, b, col);
    }
  }

  time_.assign(width, 0.0);
  pending_.assign(width, 0.0);
  has_pending_.assign(width, 0);
  next_sample_k_.assign(width, 0);
  next_sample_t_.assign(width, 0.0);
  lane_slots_.assign(width, 0);
  steps_.assign(width, 0);
  stalled_.assign(width, 0);
  done_.assign(width, 0);
  q_horizon_.assign(width, 0.0);
  q_emit_horizon_.assign(width, 0.0);
  total_scratch_.assign(width, 0.0);
  t_next_scratch_.assign(width, 0.0);
  rng_ = util::rng_lane_bank(seed, lane_ids_);
}

void batch_engine::build_plans() {
  const auto sparse = [](const multiset& m) {
    std::vector<sp_count> out;
    m.for_each([&](species_id s, std::uint64_t n) { out.push_back({s, n}); });
    return out;
  };
  const auto net = [this](const multiset& add, const multiset& sub) {
    std::vector<sp_delta> out;
    for (species_id s = 0; s < num_species_; ++s) {
      const std::int64_t d = static_cast<std::int64_t>(add.count(s)) -
                             static_cast<std::int64_t>(sub.count(s));
      if (d != 0) out.push_back({s, d});
    }
    return out;
  };
  const auto add_read = [](std::vector<species_id>& v, species_id s) {
    if (std::find(v.begin(), v.end(), s) == v.end()) v.push_back(s);
  };

  const auto& rules = cm_->rules();
  plans_.resize(rules.size());
  for (std::size_t j = 0; j < rules.size(); ++j) {
    const rule& r = rules[j];
    rule_plan& p = plans_[j];
    p.reactants = sparse(r.reactants());
    p.host_delta = net(r.products(), r.reactants());
    const auto kind = r.law().law_kind();
    p.has_driver = kind == rate_law::kind::michaelis_menten ||
                   kind == rate_law::kind::hill_repression ||
                   kind == rate_law::kind::hill_activation;
    p.driver = r.law().driver();
    p.driver_in_child = r.law().driver_in_child();
    for (const sp_count& rc : p.reactants) add_read(p.host_reads, rc.sp);
    if (p.has_driver && !p.driver_in_child) add_read(p.host_reads, p.driver);

    if (r.child_pattern().has_value()) {
      const comp_pattern& pat = *r.child_pattern();
      p.has_child = true;
      p.child_type = pat.type;
      p.wrap_req = sparse(pat.wrap_req);
      p.child_req = sparse(pat.content_req);
      p.child_delta = net(r.child_products(), pat.content_req);
      for (const sp_count& rc : p.child_req) add_read(p.child_reads, rc.sp);
      if (p.has_driver && p.driver_in_child) add_read(p.child_reads, p.driver);
    }
    p.fate = r.fate();
    for (const comp_product& cp : r.new_compartments())
      p.creations.push_back({cp.type, sparse(cp.wrap), sparse(cp.content)});
    p.structural = !p.creations.empty() || p.fate != child_fate::keep;
  }
}

const batch_engine::shape_class* batch_engine::intern_class(
    const std::vector<shape_class::node>& nodes,
    const std::vector<std::vector<std::uint32_t>>& kids) {
  key_scratch_.clear();
  key_scratch_.reserve(nodes.size());
  for (const shape_class::node& nd : nodes)
    key_scratch_.push_back((static_cast<std::uint64_t>(nd.type) << 32) |
                           static_cast<std::uint64_t>(nd.parent + 1));
  const std::uint64_t h = hash_key(key_scratch_);
  auto& bucket = classes_by_hash_[h];
  for (const auto& c : bucket)
    if (c->key == key_scratch_) return c.get();

  auto cls = std::make_unique<shape_class>();
  cls->nodes = nodes;
  cls->children = kids;
  cls->key = key_scratch_;

  // Compile the match schedule in the scalar engine's canonical order:
  // compartments in pre-order, applicable rules in declaration order,
  // children in index order. Children whose type cannot match are omitted —
  // the scalar engine computes 0.0 for them and drops them from the list,
  // so omitting them changes neither the fold nor the selection scan.
  const std::size_t n = cls->nodes.size();
  cls->block_first.resize(n);
  cls->block_count.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    cls->block_first[i] = static_cast<std::uint32_t>(cls->matches.size());
    for (const std::uint32_t j : cm_->rules_for_type(cls->nodes[i].type)) {
      const rule_plan& p = plans_[j];
      if (!p.has_child) {
        cls->matches.push_back({i, j, kNone, kNone});
        continue;
      }
      const auto& ch = cls->children[i];
      for (std::uint32_t pos = 0; pos < ch.size(); ++pos)
        if (cls->nodes[ch[pos]].type == p.child_type)
          cls->matches.push_back({i, j, ch[pos], pos});
    }
    cls->block_count[i] =
        static_cast<std::uint32_t>(cls->matches.size()) - cls->block_first[i];
  }

  // Dirty index: which matches read (node, species) as an input. Membrane
  // (wrap) counts only change structurally, so they need no entries.
  cls->touched.assign(n * num_species_, {});
  for (std::uint32_t mi = 0; mi < cls->matches.size(); ++mi) {
    const match_desc& md = cls->matches[mi];
    const rule_plan& p = plans_[md.rule];
    for (const species_id s : p.host_reads)
      cls->touched[md.host * num_species_ + s].push_back(mi);
    if (md.child != kNone)
      for (const species_id s : p.child_reads)
        cls->touched[md.child * num_species_ + s].push_back(mi);
  }

  const shape_class* out = cls.get();
  bucket.push_back(std::move(cls));
  ++num_classes_;
  return out;
}

batch_engine::class_pool& batch_engine::pool_for(const shape_class* cls,
                                                 std::size_t min_cols) {
  auto& up = pools_[cls];
  if (up == nullptr) {
    up = std::make_unique<class_pool>();
    class_pool& P = *up;
    P.cls = cls;
    // Pools start narrow and double on demand (grow_pool): most shape
    // classes only ever host a handful of lanes, and a small stride keeps
    // the whole multi-pool working set cache-resident.
    std::size_t cap = std::min<std::size_t>(width(), 4);
    while (cap < std::min(min_cols, width())) cap *= 2;
    P.cap = cap;
    const std::size_t n = cls->nodes.size();
    const std::size_t nm = cls->matches.size();
    // Zero-filled strips: every column is defined from the start, so wide
    // sweeps over not-yet-resident columns read garbage, never poison.
    P.content.assign(n * num_species_ * P.cap, 0);
    P.wrap.assign(n * num_species_ * P.cap, 0);
    P.prop.assign(nm * P.cap, 0.0);
    P.block_sub.assign(n * P.cap, 0.0);
    P.total.assign(P.cap, 0.0);
    P.cell_of.assign(P.cap, 0);
    P.free_cols.resize(P.cap);
    for (std::size_t i = 0; i < P.cap; ++i)
      P.free_cols[i] = static_cast<std::uint32_t>(P.cap - 1 - i);
    P.mask_words = static_cast<std::uint32_t>((P.cap + 63) / 64);
    P.match_mask.assign(nm * P.mask_words, 0);
    P.block_mask.assign(n * P.mask_words, 0);
    P.match_round.assign(nm, 0);
    P.block_round.assign(n, 0);
    P.tr_cache.assign(nm, nullptr);
    P.hot_nodes = static_cast<std::uint32_t>(n);
  }
  return *up;
}

void batch_engine::grow_pool(class_pool& P) {
  const std::size_t oldcap = P.cap;
  util::expects(oldcap < width(), "class pool out of lane columns");
  const std::size_t newcap = std::min(width(), oldcap * 2);
  const std::size_t n = P.cls->nodes.size();
  const std::size_t nm = P.cls->matches.size();
  const auto restride = [&](auto& v, std::size_t rows, auto zero) {
    std::decay_t<decltype(v)> nv(rows * newcap, zero);
    for (std::size_t r = 0; r < rows; ++r)
      std::copy_n(v.data() + r * oldcap, oldcap, nv.data() + r * newcap);
    v = std::move(nv);
  };
  restride(P.content, n * num_species_, std::uint64_t{0});
  restride(P.wrap, n * num_species_, std::uint64_t{0});
  restride(P.prop, nm, 0.0);
  restride(P.block_sub, n, 0.0);
  P.total.resize(newcap, 0.0);
  P.cell_of.resize(newcap, 0);
  // Growth can land mid-round (a structural fire staging into this pool),
  // so the dirty masks must survive the re-stride word-for-word.
  const auto new_words = static_cast<std::uint32_t>((newcap + 63) / 64);
  if (new_words != P.mask_words) {
    const auto remask = [&](std::vector<std::uint64_t>& v, std::size_t rows) {
      std::vector<std::uint64_t> nv(rows * new_words, 0);
      for (std::size_t r = 0; r < rows; ++r)
        std::copy_n(v.data() + r * P.mask_words, P.mask_words,
                    nv.data() + r * new_words);
      v = std::move(nv);
    };
    remask(P.match_mask, nm);
    remask(P.block_mask, n);
    P.mask_words = new_words;
  }
  // New columns pushed high-to-low so allocation hands them out ascending.
  P.free_cols.reserve(P.free_cols.size() + (newcap - oldcap));
  for (std::size_t c = newcap; c-- > oldcap;)
    P.free_cols.push_back(static_cast<std::uint32_t>(c));
  P.cap = newcap;
}

std::uint32_t batch_engine::alloc_col(class_pool& P) {
  if (P.free_cols.empty()) grow_pool(P);
  const std::uint32_t col = P.free_cols.back();
  P.free_cols.pop_back();
  ++P.live;
  return col;
}

void batch_engine::free_col(class_pool& P, std::uint32_t col) {
  P.free_cols.push_back(col);
  --P.live;
}

void batch_engine::touch_pool(class_pool& P) {
  if (P.flush_round != round_) {
    P.flush_round = round_;
    flush_pools_.push_back(&P);
  }
}

void batch_engine::mark_block(class_pool& P, std::uint32_t b,
                              std::uint32_t word, std::uint64_t bit) {
  if (P.block_round[b] != round_) {
    P.block_round[b] = round_;
    P.dirty_b.push_back(b);
  }
  P.block_mask[std::size_t{b} * P.mask_words + word] |= bit;
}

void batch_engine::mark_match(class_pool& P, std::uint32_t mi,
                              std::uint32_t word, std::uint64_t bit) {
  if (P.match_round[mi] != round_) {
    P.match_round[mi] = round_;
    P.dirty_mi.push_back(mi);
  }
  P.match_mask[std::size_t{mi} * P.mask_words + word] |= bit;
  mark_block(P, P.cls->matches[mi].host, word, bit);
}

void batch_engine::mark_reads(class_pool& P, std::uint32_t node, species_id s,
                              std::uint32_t word, std::uint64_t bit) {
  for (const std::uint32_t mi :
       P.cls->touched[std::size_t{node} * num_species_ + s])
    mark_match(P, mi, word, bit);
}

bool batch_engine::note_fire(class_pool& P) {
  touch_pool(P);
  if (P.fires_round != round_) {
    P.fires_round = round_;
    P.fires_n = 0;
    P.flood = false;
  }
  // Flooding replaces per-fire marking with a blanket sweep of every match
  // row, so it only pays once the round's fires rival the pool's row count
  // — family layout pools carry rows for max_slots slots and must not be
  // swept whole for a handful of fires.
  if (P.flood ||
      ++P.fires_n >= std::max<std::size_t>(flood_min_, P.cls->matches.size())) {
    P.flood = true;
    return true;
  }
  return false;
}

void batch_engine::zero_col(class_pool& P, std::uint32_t col) {
  const std::size_t cap = P.cap;
  const std::size_t n = P.cls->nodes.size();
  const std::size_t nm = P.cls->matches.size();
  for (std::size_t r = 0; r < n * num_species_; ++r) {
    P.content[r * cap + col] = 0;
    P.wrap[r * cap + col] = 0;
  }
  for (std::size_t mi = 0; mi < nm; ++mi) P.prop[mi * cap + col] = 0.0;
  for (std::size_t b = 0; b < n; ++b) P.block_sub[b * cap + col] = 0.0;
}

double batch_engine::eval_match_dense(const rate_tape& T, const shape_class& C,
                                      std::uint32_t mi,
                                      const std::uint64_t* content,
                                      const std::uint64_t* wrap) const {
  const match_desc& md = C.matches[mi];
  const tape_program& pg = T.program(md.rule);
  const std::uint64_t* host_c = content + std::size_t{md.host} * num_species_;
  const std::uint64_t* cw = nullptr;
  const std::uint64_t* cc = nullptr;
  if (md.child != kNone) {
    cw = wrap + std::size_t{md.child} * num_species_;
    cc = content + std::size_t{md.child} * num_species_;
  }
  return T.eval(pg, host_c, cw, cc, 1);
}

double batch_engine::eval_match_pool(const class_pool& P, std::uint32_t mi,
                                     std::uint32_t col) const {
  const shape_class& C = *P.cls;
  const match_desc& md = C.matches[mi];
  const rate_tape& T = *tape_for_col(P, col);
  const tape_program& pg = T.program(md.rule);
  const std::size_t cap = P.cap;
  const std::uint64_t* host_c =
      P.content.data() + std::size_t{md.host} * num_species_ * cap + col;
  const std::uint64_t* cw = nullptr;
  const std::uint64_t* cc = nullptr;
  if (md.child != kNone) {
    cw = P.wrap.data() + std::size_t{md.child} * num_species_ * cap + col;
    cc = P.content.data() + std::size_t{md.child} * num_species_ * cap + col;
  }
  return T.eval(pg, host_c, cw, cc, cap);
}

const double* batch_engine::gather_cell_a(const class_pool& P,
                                          std::uint32_t rule, tape_head head) {
  // Only the mass-action head carries a per-cell operand: overlays cannot
  // patch MM/Hill constants, so those programs are identical across cells
  // and the shared pg parameter block is right for every column. Free or
  // stale columns gather a defined (last resident cell's) constant that is
  // never read for decisions — the usual strip convention.
  if (!multi_cell_ || head != tape_head::mass_action) return nullptr;
  a_scratch_.resize(P.cap);
  const double* base = cell_a_.data() + rule;
  for (std::size_t c = 0; c < P.cap; ++c)
    a_scratch_[c] = base[std::size_t{P.cell_of[c]} * num_rules_];
  return a_scratch_.data();
}

double batch_engine::fold_total_col(const class_pool& P, std::uint32_t col,
                                    std::uint32_t nb) const {
  // Canonical pre-order fold over the block subtotals (the per-column
  // accumulation order of the wide totals kernel). Truncating at the
  // lane's live node count only drops trailing +0.0 terms.
  const std::size_t cap = P.cap;
  double total = 0.0;
  for (std::size_t b = 0; b < nb; ++b) total += P.block_sub[b * cap + col];
  return total;
}

std::uint32_t batch_engine::live_nodes(std::size_t lane) const {
  const class_pool& P = *lane_pool_[lane];
  return P.fam != nullptr
             ? P.fam->skeleton_n + lane_slots_[lane]
             : static_cast<std::uint32_t>(P.cls->nodes.size());
}

void batch_engine::resum_block_col(class_pool& P, std::uint32_t b,
                                   std::uint32_t col) {
  // Canonical left-to-right fold over the block's matches; infeasible
  // entries hold +0.0 and cannot perturb the sum, so the value is
  // bit-identical to the scalar engine's positive-matches-only fold.
  const std::uint32_t first = P.cls->block_first[b];
  const std::uint32_t count = P.cls->block_count[b];
  const std::size_t cap = P.cap;
  double sub = 0.0;
  for (std::uint32_t mi = first; mi < first + count; ++mi)
    sub += P.prop[std::size_t{mi} * cap + col];
  P.block_sub[std::size_t{b} * cap + col] = sub;
}

void batch_engine::flush_pool(class_pool& P) {
  const shape_class& C = *P.cls;
  const std::size_t cap = P.cap;
  const std::uint32_t W = P.mask_words;
  if (P.flood) {
    // Flood flush: enough lanes fired this round that the pool stopped
    // tracking per-row masks — re-evaluate EVERY match row and refold
    // EVERY block wide. Purity makes the blanket sweep exact: clean (or
    // stale, or free) columns just get their bits rewritten.
    const std::size_t nm = C.matches.size();
    for (std::uint32_t mi = 0; mi < nm; ++mi) {
      const match_desc& md = C.matches[mi];
      const tape_program& pg = tape_->program(md.rule);
      const std::uint64_t* host_c =
          P.content.data() + std::size_t{md.host} * num_species_ * cap;
      const std::uint64_t* cw = nullptr;
      const std::uint64_t* cc = nullptr;
      if (md.child != kNone) {
        cw = P.wrap.data() + std::size_t{md.child} * num_species_ * cap;
        cc = P.content.data() + std::size_t{md.child} * num_species_ * cap;
      }
      kernels::tape_eval_wide(*tape_, pg, host_c, cw, cc, cap,
                              P.prop.data() + std::size_t{mi} * cap,
                              wide_scratch_,
                              gather_cell_a(P, md.rule, pg.head));
    }
    const std::size_t n = C.nodes.size();
    for (std::uint32_t b = 0; b < n; ++b)
      kernels::fold_rows_wide(P.prop.data(), C.block_first[b],
                              C.block_count[b], cap,
                              P.block_sub.data() + std::size_t{b} * cap);
    // Rows marked before the flood threshold tripped still hold mask bits.
    for (const std::uint32_t mi : P.dirty_mi) {
      std::uint64_t* mask = P.match_mask.data() + std::size_t{mi} * W;
      for (std::uint32_t w = 0; w < W; ++w) mask[w] = 0;
    }
    for (const std::uint32_t b : P.dirty_b) {
      std::uint64_t* mask = P.block_mask.data() + std::size_t{b} * W;
      for (std::uint32_t w = 0; w < W; ++w) mask[w] = 0;
    }
    P.dirty_mi.clear();
    P.dirty_b.clear();
    P.flood = false;
    return;
  }
  const auto popcount = [&](const std::uint64_t* m) {
    std::size_t n = 0;
    for (std::uint32_t w = 0; w < W; ++w) n += std::popcount(m[w]);
    return n;
  };
  // Re-evaluations first (folds read them). A row enough lanes dirtied is
  // swept wide across ALL columns: propensities are pure functions of the
  // counts they read, so re-evaluating a clean (or stale) column rewrites
  // its bits unchanged — that redundancy is what buys contiguous
  // lane-innermost arithmetic. Sparse rows walk their set bits scalar.
  for (const std::uint32_t mi : P.dirty_mi) {
    std::uint64_t* mask = P.match_mask.data() + std::size_t{mi} * W;
    if (popcount(mask) >= wide_eval_min_) {
      const match_desc& md = C.matches[mi];
      const tape_program& pg = tape_->program(md.rule);
      const std::uint64_t* host_c =
          P.content.data() + std::size_t{md.host} * num_species_ * cap;
      const std::uint64_t* cw = nullptr;
      const std::uint64_t* cc = nullptr;
      if (md.child != kNone) {
        cw = P.wrap.data() + std::size_t{md.child} * num_species_ * cap;
        cc = P.content.data() + std::size_t{md.child} * num_species_ * cap;
      }
      kernels::tape_eval_wide(*tape_, pg, host_c, cw, cc, cap,
                              P.prop.data() + std::size_t{mi} * cap,
                              wide_scratch_,
                              gather_cell_a(P, md.rule, pg.head));
    } else {
      for (std::uint32_t w = 0; w < W; ++w) {
        std::uint64_t bits = mask[w];
        while (bits != 0) {
          const auto col =
              static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
          bits &= bits - 1;
          P.prop[std::size_t{mi} * cap + col] = eval_match_pool(P, mi, col);
        }
      }
    }
    for (std::uint32_t w = 0; w < W; ++w) mask[w] = 0;
  }
  for (const std::uint32_t b : P.dirty_b) {
    std::uint64_t* mask = P.block_mask.data() + std::size_t{b} * W;
    if (popcount(mask) >= wide_fold_min_) {
      kernels::fold_rows_wide(P.prop.data(), C.block_first[b],
                              C.block_count[b], cap,
                              P.block_sub.data() + std::size_t{b} * cap);
    } else {
      for (std::uint32_t w = 0; w < W; ++w) {
        std::uint64_t bits = mask[w];
        while (bits != 0) {
          const auto col =
              static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
          bits &= bits - 1;
          resum_block_col(P, b, col);
        }
      }
    }
    for (std::uint32_t w = 0; w < W; ++w) mask[w] = 0;
  }
  P.dirty_mi.clear();
  P.dirty_b.clear();
}

void batch_engine::record_sample(std::size_t lane, double at,
                                 std::vector<trajectory_sample>& out) {
  const class_pool& P = *lane_pool_[lane];
  const std::uint32_t col = lane_col_[lane];
  const shape_class& C = *P.cls;
  const std::size_t cap = P.cap;
  const auto& plans = cm_->observable_plans();
  obs_scratch_.resize(plans.size());
  for (std::uint64_t& v : obs_scratch_) v = 0;
  // Same exact-integer accumulation as compiled_model::observe_all, over
  // the lane's strip column instead of a tree walk. Family layouts hold
  // max_slots node rows but only skeleton + K are this lane's term; the
  // reserve rows are exactly zero, so skipping them changes no sum.
  const std::size_t n = P.fam != nullptr
                            ? P.fam->skeleton_n + lane_slots_[lane]
                            : C.nodes.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t* c =
        P.content.data() + i * num_species_ * cap + col;
    const std::uint64_t* w = P.wrap.data() + i * num_species_ * cap + col;
    for (std::size_t o = 0; o < plans.size(); ++o) {
      const auto& p = plans[o];
      if (!p.scoped) {
        obs_scratch_[o] += c[std::size_t{p.sp} * cap] + w[std::size_t{p.sp} * cap];
      } else if (C.nodes[i].type == p.scope) {
        obs_scratch_[o] += c[std::size_t{p.sp} * cap];
      }
    }
  }
  trajectory_sample s;
  s.time = at;
  s.values.reserve(plans.size());
  for (const std::uint64_t v : obs_scratch_)
    s.values.push_back(static_cast<double>(v));
  out.push_back(std::move(s));
}

void batch_engine::emit_frozen_tail(std::size_t lane, double t_end,
                                    double sample_period,
                                    std::vector<trajectory_sample>& out) {
  // No reaction can ever fire again: emit the frozen tail straight to
  // t_end (the scalar backends' stall fast-forward).
  const double horizon = t_end + sample_tolerance(t_end, sample_period);
  while (sample_time(next_sample_k_[lane], sample_period) <= horizon) {
    record_sample(lane, sample_time(next_sample_k_[lane], sample_period), out);
    ++next_sample_k_[lane];
  }
  time_[lane] = t_end;
}

void batch_engine::apply_fast(class_pool& P, std::uint32_t col,
                              const match_desc& md, const rule_plan& rp) {
  const std::size_t cap = P.cap;
  std::uint64_t* content = P.content.data();
  const auto cell = [&](std::uint32_t node, species_id sp) -> std::uint64_t& {
    return content[(std::size_t{node} * num_species_ + sp) * cap + col];
  };
  for (const sp_delta& d : rp.host_delta) {
    std::uint64_t& c = cell(md.host, d.sp);
    c = static_cast<std::uint64_t>(static_cast<std::int64_t>(c) + d.d);
  }
  if (rp.has_child) {
    for (const sp_delta& d : rp.child_delta) {
      std::uint64_t& c = cell(md.child, d.sp);
      c = static_cast<std::uint64_t>(static_cast<std::int64_t>(c) + d.d);
    }
  }

  // Per-match dirty granularity, deferred: OR the column's bit into each
  // affected row's mask (idempotent — no per-fire dedupe needed) and
  // enroll the row in the dirty list once per round; the end-of-round
  // flush popcounts each mask to pick wide sweep vs per-bit scalar. Once
  // enough fires hit this pool in one round, marking stops (flood): the
  // flush will blanket-sweep every row wide anyway.
  if (note_fire(P)) return;
  const std::uint32_t word = col / 64;
  const std::uint64_t bit = 1ULL << (col & 63);
  for (const sp_delta& d : rp.host_delta) mark_reads(P, md.host, d.sp, word, bit);
  if (rp.has_child)
    for (const sp_delta& d : rp.child_delta)
      mark_reads(P, md.child, d.sp, word, bit);
}

const batch_engine::transition& batch_engine::find_transition(
    const shape_class& C, const match_desc& md, const rule_plan& rp) {
  const auto n = static_cast<std::uint32_t>(C.nodes.size());
  const std::uint32_t host = md.host;

  // Transition lookup: the outcome depends only on (class, rule, host,
  // bound child) — pack the index triple into one word, bucket by a hash
  // of it with the class pointer, disambiguate on the full key. The 21-bit
  // index fields bound the packing; fail loudly rather than alias keys on
  // a pathological 2M-compartment tree.
  util::expects(md.rule < (1u << 21) && host < (1u << 21) &&
                    (md.child == kNone || md.child < (1u << 21) - 1),
                "transition key fields exceed 21 bits");
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(md.rule) << 42) |
      (static_cast<std::uint64_t>(host) << 21) |
      (md.child == kNone ? 0 : static_cast<std::uint64_t>(md.child) + 1);
  const std::uint64_t h =
      (reinterpret_cast<std::uintptr_t>(&C) >> 4) * 0x9e3779b97f4a7c15ULL ^
      packed * 0x100000001b3ULL;
  auto& bucket = transitions_[h];
  for (auto& [key, tr] : bucket)
    if (key.first == &C && key.second == packed) return *tr;

  // ---- miss: build the edited topology once and cache it --------------
  // Edited child list of the host (old ids; creation k gets id n+k),
  // replaying rule::apply's order: creations append first, then the bound
  // child is dropped (its original position is still valid) and dissolve
  // appends the grandchildren.
  host_kids_scratch_.assign(C.children[host].begin(), C.children[host].end());
  for (std::uint32_t k = 0; k < rp.creations.size(); ++k)
    host_kids_scratch_.push_back(n + k);
  if (rp.has_child && rp.fate != child_fate::keep) {
    host_kids_scratch_.erase(host_kids_scratch_.begin() + md.child_pos);
    if (rp.fate == child_fate::dissolve)
      for (const std::uint32_t g : C.children[md.child])
        host_kids_scratch_.push_back(g);
  }

  // New pre-order topology + origin map (removed subtrees unreachable).
  new_nodes_.clear();
  origin_.clear();
  const auto walk = [&](auto&& self, std::uint32_t old_id,
                        std::int32_t parent) -> std::uint32_t {
    const auto idx = static_cast<std::uint32_t>(new_nodes_.size());
    const bool created = old_id >= n;
    new_nodes_.push_back(
        {created ? rp.creations[old_id - n].type : C.nodes[old_id].type,
         parent});
    if (new_children_.size() <= idx) new_children_.emplace_back();
    new_children_[idx].clear();
    origin_.push_back(old_id);
    if (created) return idx;  // comp_products carry no nested compartments
    const auto& kids_of =
        old_id == host ? host_kids_scratch_ : C.children[old_id];
    for (const std::uint32_t c : kids_of) {
      const std::uint32_t ci = self(self, c, static_cast<std::int32_t>(idx));
      new_children_[idx].push_back(ci);
    }
    return idx;
  };
  walk(walk, 0, -1);
  const auto n2 = static_cast<std::uint32_t>(new_nodes_.size());
  new_children_.resize(n2);

  transition tr;
  tr.to = intern_class(new_nodes_, new_children_);
  tr.origin = origin_;
  for (std::uint32_t i = 0; i < n2; ++i) {
    if (origin_[i] == host) tr.new_host = i;
    if (rp.has_child && rp.fate == child_fate::keep && origin_[i] == md.child)
      tr.new_bound = i;
  }
  util::ensures(tr.new_host != kNone, "structural rewrite lost the host");
  // Boxed so the per-pool tr_cache pointers survive bucket growth.
  bucket.emplace_back(std::make_pair(&C, packed),
                      std::make_unique<transition>(std::move(tr)));
  return *bucket.back().second;
}

batch_engine::family* batch_engine::family_entry_for(const shape_class* C) {
  if (const auto it = entry_cache_.find(C); it != entry_cache_.end())
    return it->second;
  // Trailing slot run: the maximal pre-order suffix of childless nodes of
  // one type hanging off one skeleton host. Such classes differ from each
  // other only in the run length K, which is what a family collapses.
  const auto n = static_cast<std::uint32_t>(C->nodes.size());
  const comp_type_id T = C->nodes[n - 1].type;
  const std::int32_t h = C->nodes[n - 1].parent;
  std::uint32_t run = 0;
  if (h >= 0) {
    while (run < n) {
      const std::uint32_t i = n - 1 - run;
      if (C->nodes[i].type != T || C->nodes[i].parent != h ||
          !C->children[i].empty())
        break;
      ++run;
    }
  }
  const std::uint32_t skeleton_n = n - run;
  if (run == 0 || static_cast<std::uint32_t>(h) >= skeleton_n) {
    entry_cache_.emplace(C, nullptr);
    return nullptr;
  }

  // Eligibility: every slot-involving propensity must evaluate to exactly
  // +0.0 when the slot's counts are all zero — that is what lets absent
  // slots sit as zero rows that perturb neither folds nor selection scans
  // (and lets wide sweeps re-evaluate them to the same zero). Checked on
  // the compiled tape: a slot-hosted rule needs a host-content factor or a
  // zero-at-zero driver head; a slot-binding match needs a wrap/content
  // requirement or a zero-at-zero driver read from the child.
  const comp_type_id host_type =
      C->nodes[static_cast<std::uint32_t>(h)].type;
  const auto zero_at_zero_driver = [](const tape_program& pg) {
    return pg.has_driver && (pg.head == tape_head::michaelis_menten ||
                             pg.head == tape_head::hill_activation);
  };
  bool ok = true;
  for (const std::uint32_t j : cm_->rules_for_type(T)) {
    const rule_plan& p = plans_[j];
    if (p.has_child) continue;  // slots are leaves: no such match exists
    const tape_program& pg = tape_->program(j);
    if (pg.n_host == 0 && !(zero_at_zero_driver(pg) && !pg.driver_in_child)) {
      ok = false;
      break;
    }
  }
  if (ok) {
    for (const std::uint32_t j : cm_->rules_for_type(host_type)) {
      const rule_plan& p = plans_[j];
      if (!p.has_child || p.child_type != T) continue;
      const tape_program& pg = tape_->program(j);
      if (pg.n_wrap + pg.n_child == 0 &&
          !(zero_at_zero_driver(pg) && pg.driver_in_child)) {
        ok = false;
        break;
      }
    }
  }
  if (!ok) {
    entry_cache_.emplace(C, nullptr);
    return nullptr;
  }

  // A wide-enough existing family over the same skeleton and slot
  // signature, else build one with doubling headroom.
  family* best = nullptr;
  for (const auto& f : families_) {
    if (f->slot_type != T || f->slot_parent != static_cast<std::uint32_t>(h) ||
        f->skeleton_n != skeleton_n || f->max_slots < run)
      continue;
    if (!std::equal(f->skel_key.begin(), f->skel_key.end(), C->key.begin()))
      continue;
    if (best == nullptr || f->max_slots > best->max_slots) best = f.get();
  }
  if (best == nullptr) {
    auto fam = std::make_unique<family>();
    fam->skeleton_n = skeleton_n;
    fam->slot_parent = static_cast<std::uint32_t>(h);
    fam->slot_type = T;
    fam->max_slots = std::max<std::uint32_t>(4, 2 * run);
    fam->skel_key.assign(C->key.begin(), C->key.begin() + skeleton_n);
    std::vector<shape_class::node> nodes(C->nodes.begin(),
                                         C->nodes.begin() + skeleton_n);
    std::vector<std::vector<std::uint32_t>> kidv(skeleton_n);
    for (std::uint32_t i = 0; i < skeleton_n; ++i)
      for (const std::uint32_t k : C->children[i])
        if (k < skeleton_n) kidv[i].push_back(k);
    for (std::uint32_t s = 0; s < fam->max_slots; ++s) {
      const auto id = static_cast<std::uint32_t>(nodes.size());
      nodes.push_back({T, h});
      kidv[fam->slot_parent].push_back(id);
    }
    kidv.resize(std::size_t{skeleton_n} + fam->max_slots);
    family* F = fam.get();
    F->fcls = intern_class(nodes, kidv);
    class_pool& FP = pool_for(F->fcls);
    F->pool = &FP;
    util::ensures(FP.fam == nullptr, "family layout pool already claimed");
    FP.fam = F;
    // Lanes that reached the layout class generically before this family
    // existed are, by definition, full-width members.
    if (FP.live == 0) FP.hot_nodes = skeleton_n;  // ratchets up on entry
    for (std::size_t l = 0; l < width(); ++l)
      if (lane_pool_[l] == &FP) lane_slots_[l] = F->max_slots;
    F->host_rows_of_slot.assign(F->max_slots, {});
    const shape_class& FC = *F->fcls;
    const std::uint32_t bf = FC.block_first[F->slot_parent];
    for (std::uint32_t k = 0; k < FC.block_count[F->slot_parent]; ++k) {
      const match_desc& m = FC.matches[bf + k];
      if (m.child != kNone && m.child >= skeleton_n)
        F->host_rows_of_slot[m.child - skeleton_n].push_back(bf + k);
    }
    families_.push_back(std::move(fam));
    best = F;
  }
  entry_cache_.emplace(C, best);
  return best;
}

const batch_engine::shape_class* batch_engine::member_class(const family& F,
                                                            std::uint32_t K) {
  const shape_class& FC = *F.fcls;
  const std::uint32_t n = F.skeleton_n + K;
  std::vector<shape_class::node> nodes(FC.nodes.begin(), FC.nodes.begin() + n);
  std::vector<std::vector<std::uint32_t>> kidv(n);
  for (std::uint32_t i = 0; i < n; ++i)
    for (const std::uint32_t k : FC.children[i])
      if (k < n) kidv[i].push_back(k);
  return intern_class(nodes, kidv);
}

const std::vector<std::uint32_t>& batch_engine::family_rowmap(family& F,
                                                              std::uint32_t K) {
  if (const auto it = F.rowmaps.find(K); it != F.rowmaps.end())
    return it->second;
  // Block-by-block greedy subsequence alignment on (rule, child): member
  // blocks carry the same per-rule groups as the layout blocks with the
  // missing slots' entries absent, so every member row has exactly one
  // counterpart and relative order is preserved (the bit-exactness
  // precondition for interspersed-zero folds).
  const shape_class& CA = *member_class(F, K);
  const shape_class& FC = *F.fcls;
  std::vector<std::uint32_t> map(CA.matches.size(), kNone);
  const auto nb = static_cast<std::uint32_t>(CA.nodes.size());
  for (std::uint32_t b = 0; b < nb; ++b) {
    std::uint32_t cur = FC.block_first[b];
    const std::uint32_t end = cur + FC.block_count[b];
    const std::uint32_t first = CA.block_first[b];
    for (std::uint32_t mi = first; mi < first + CA.block_count[b]; ++mi) {
      const match_desc& m = CA.matches[mi];
      while (cur < end && (FC.matches[cur].rule != m.rule ||
                           FC.matches[cur].child != m.child))
        ++cur;
      util::ensures(cur < end, "family member rows not a subsequence");
      map[mi] = cur++;
    }
  }
  return F.rowmaps.emplace(K, std::move(map)).first->second;
}

void batch_engine::migrate_to_family(std::size_t lane, family& F) {
  // Pure re-layout: scatter the lane's column into the family pool at the
  // family's row positions, zeros everywhere the member has no row. Every
  // copied cell keeps its bits, so totals, folds, and selection reproduce
  // the member layout's arithmetic exactly.
  class_pool& P = *lane_pool_[lane];
  const std::uint32_t colA = lane_col_[lane];
  const shape_class& CA = *P.cls;
  const auto K = static_cast<std::uint32_t>(CA.nodes.size()) - F.skeleton_n;
  const std::vector<std::uint32_t>& map = family_rowmap(F, K);
  class_pool& FP = *F.pool;
  const std::uint32_t colB = alloc_col(FP);
  FP.cell_of[colB] = lane_cell_[lane];
  zero_col(FP, colB);  // recycled columns must honor the zero invariant
  const std::size_t capA = P.cap;
  const std::size_t capB = FP.cap;
  const std::size_t n = CA.nodes.size();
  for (std::size_t r = 0; r < n * num_species_; ++r) {
    FP.content[r * capB + colB] = P.content[r * capA + colA];
    FP.wrap[r * capB + colB] = P.wrap[r * capA + colA];
  }
  for (std::size_t mi = 0; mi < CA.matches.size(); ++mi)
    FP.prop[std::size_t{map[mi]} * capB + colB] = P.prop[mi * capA + colA];
  for (std::size_t b = 0; b < n; ++b)
    FP.block_sub[b * capB + colB] = P.block_sub[b * capA + colA];
  free_col(P, colA);
  lane_pool_[lane] = &FP;
  lane_col_[lane] = colB;
  lane_slots_[lane] = K;
  FP.hot_nodes = std::max(FP.hot_nodes, F.skeleton_n + K);
}

void batch_engine::family_append(std::size_t lane, const match_desc& md,
                                 const rule_plan& rp) {
  class_pool& P = *lane_pool_[lane];
  family& F = *P.fam;
  const std::uint32_t col = lane_col_[lane];
  const std::size_t cap = P.cap;
  const std::uint32_t K = lane_slots_[lane];
  const std::uint32_t slot_node = F.skeleton_n + K;
  const auto cell = [&](std::uint32_t node, species_id sp) -> std::uint64_t& {
    return P.content[(std::size_t{node} * num_species_ + sp) * cap + col];
  };
  // The slot's rows are exactly zero (family invariant): write the
  // creation's counts straight in, then apply the host stoichiometry.
  for (const sp_count& rc : rp.creations[0].content)
    cell(slot_node, rc.sp) = rc.n;
  for (const sp_count& rc : rp.creations[0].wrap)
    P.wrap[(std::size_t{slot_node} * num_species_ + rc.sp) * cap + col] = rc.n;
  for (const sp_delta& d : rp.host_delta) {
    std::uint64_t& c = cell(md.host, d.sp);
    c = static_cast<std::uint64_t>(static_cast<std::int64_t>(c) + d.d);
  }
  ++lane_slots_[lane];
  P.hot_nodes = std::max(P.hot_nodes, slot_node + 1);

  if (note_fire(P)) return;  // the blanket flush re-evaluates every row
  const std::uint32_t word = col / 64;
  const std::uint64_t bit = 1ULL << (col & 63);
  for (const sp_delta& d : rp.host_delta)
    mark_reads(P, md.host, d.sp, word, bit);
  // Newly live rows need explicit marks: wrap requirements are not in the
  // touched index (membrane counts only change structurally).
  for (const std::uint32_t mi : F.host_rows_of_slot[K])
    mark_match(P, mi, word, bit);
  const std::uint32_t bf = F.fcls->block_first[slot_node];
  for (std::uint32_t k = 0; k < F.fcls->block_count[slot_node]; ++k)
    mark_match(P, bf + k, word, bit);
  mark_block(P, md.host, word, bit);
}

void batch_engine::family_dissolve(std::size_t lane, const match_desc& md,
                                   const rule_plan& rp) {
  class_pool& P = *lane_pool_[lane];
  family& F = *P.fam;
  const std::uint32_t col = lane_col_[lane];
  const std::size_t cap = P.cap;
  const std::uint32_t K = lane_slots_[lane];
  const std::uint32_t j = md.child - F.skeleton_n;  // 0-based dying slot
  util::expects(j < K, "family dissolve on an absent slot");
  const auto crow = [&](std::uint32_t node) {
    return P.content.data() + std::size_t{node} * num_species_ * cap + col;
  };
  const auto wrow = [&](std::uint32_t node) {
    return P.wrap.data() + std::size_t{node} * num_species_ * cap + col;
  };
  // Host edit first (reads the dying slot's rows before they shift):
  // stoichiometry, then — dissolve only — the slot's content and membrane
  // merge in, with the changed-species set tracked for dirty marking.
  changed_host_.assign(num_species_, 0);
  for (const sp_delta& d : rp.host_delta) changed_host_[d.sp] = 1;
  std::uint64_t* host_c = crow(md.host);
  const auto bump = [&](const sp_delta& d) {
    std::uint64_t& c = host_c[std::size_t{d.sp} * cap];
    c = static_cast<std::uint64_t>(static_cast<std::int64_t>(c) + d.d);
  };
  for (const sp_delta& d : rp.host_delta) bump(d);
  if (rp.fate == child_fate::dissolve) {
    const std::uint64_t* cc = crow(md.child);
    const std::uint64_t* cw = wrow(md.child);
    for (species_id s = 0; s < num_species_; ++s) {
      const std::uint64_t add =
          cc[std::size_t{s} * cap] + cw[std::size_t{s} * cap];
      if (add != 0) {
        host_c[std::size_t{s} * cap] += add;
        changed_host_[s] = 1;
      }
    }
    for (const sp_delta& d : rp.child_delta) {
      bump(d);
      changed_host_[d.sp] = 1;
    }
  }
  // Shift slots j+1..K-1 down one — node rows, host-block binding rows
  // (group-aligned, same rule), the slots' own block rows and subtotals.
  // All bit-copies: each value is a pure function of counts that move with
  // it; rows that also read changed host counts get re-marked below.
  const shape_class& FC = *F.fcls;
  for (std::uint32_t s = j; s + 1 < K; ++s) {
    const std::uint32_t a = F.skeleton_n + s;
    const std::uint32_t b2 = a + 1;
    std::uint64_t* ca = crow(a);
    const std::uint64_t* cb = crow(b2);
    std::uint64_t* wa = wrow(a);
    const std::uint64_t* wb = wrow(b2);
    for (species_id sp = 0; sp < num_species_; ++sp) {
      ca[std::size_t{sp} * cap] = cb[std::size_t{sp} * cap];
      wa[std::size_t{sp} * cap] = wb[std::size_t{sp} * cap];
    }
    const auto& ra = F.host_rows_of_slot[s];
    const auto& rb = F.host_rows_of_slot[s + 1];
    for (std::size_t g = 0; g < ra.size(); ++g)
      P.prop[std::size_t{ra[g]} * cap + col] =
          P.prop[std::size_t{rb[g]} * cap + col];
    const std::uint32_t bfa = FC.block_first[a];
    const std::uint32_t bfb = FC.block_first[b2];
    for (std::uint32_t t = 0; t < FC.block_count[a]; ++t)
      P.prop[std::size_t{bfa + t} * cap + col] =
          P.prop[std::size_t{bfb + t} * cap + col];
    P.block_sub[std::size_t{a} * cap + col] =
        P.block_sub[std::size_t{b2} * cap + col];
  }
  {  // zero the vacated last slot — restores the rows-above-K invariant
    const std::uint32_t z = F.skeleton_n + K - 1;
    std::uint64_t* cz = crow(z);
    std::uint64_t* wz = wrow(z);
    for (species_id sp = 0; sp < num_species_; ++sp) {
      cz[std::size_t{sp} * cap] = 0;
      wz[std::size_t{sp} * cap] = 0;
    }
    for (const std::uint32_t mi : F.host_rows_of_slot[K - 1])
      P.prop[std::size_t{mi} * cap + col] = 0.0;
    const std::uint32_t bfz = FC.block_first[z];
    for (std::uint32_t t = 0; t < FC.block_count[z]; ++t)
      P.prop[std::size_t{bfz + t} * cap + col] = 0.0;
    P.block_sub[std::size_t{z} * cap + col] = 0.0;
  }
  --lane_slots_[lane];

  if (note_fire(P)) return;
  const std::uint32_t word = col / 64;
  const std::uint64_t bit = 1ULL << (col & 63);
  for (species_id s = 0; s < num_species_; ++s)
    if (changed_host_[s] != 0) mark_reads(P, md.host, s, word, bit);
  // The host block's fold changed even when no host count did (a binding
  // row left it): always refold.
  mark_block(P, md.host, word, bit);
}

void batch_engine::apply_structural(std::size_t lane, const match_desc& md,
                                    const rule_plan& rp) {
  class_pool& P = *lane_pool_[lane];
  if (P.fam != nullptr) {
    family& F = *P.fam;
    const std::uint32_t K = lane_slots_[lane];
    if (!rp.has_child && rp.creations.size() == 1 &&
        rp.creations[0].type == F.slot_type && md.host == F.slot_parent &&
        K < F.max_slots) {
      family_append(lane, md, rp);
      return;
    }
    if (rp.has_child && rp.creations.empty() &&
        rp.fate != child_fate::keep && md.child >= F.skeleton_n) {
      family_dissolve(lane, md, rp);
      return;
    }
    // Anything else — including an append at K == max_slots — leaves the
    // family through the generic path over the lane's member class. If the
    // result re-qualifies (overflow lands in a wider family), the generic
    // commit tail migrates the lane right back in.
    const shape_class* CA = member_class(F, K);
    apply_generic(lane, *CA, md, rp, family_rowmap(F, K).data());
    return;
  }
  apply_generic(lane, *P.cls, md, rp, nullptr);
}

void batch_engine::apply_generic(std::size_t lane, const shape_class& C,
                                 const match_desc& md, const rule_plan& rp,
                                 const std::uint32_t* prop_rowmap) {
  // Structural rewrites only edit the HOST's child list (creations append;
  // dissolve/remove drop the bound child, dissolve reparents its children
  // to the host's tail) plus the host/bound-child contents. Everything
  // else keeps its subtree, its counts, and therefore — propensities being
  // pure functions of the counts they read — its match values. The
  // topology outcome comes from the transition cache; per fire we stage
  // the lane's next column DENSE (stride 1) in engine scratch — counts and
  // match values carried by origin from the old strip column, only matches
  // whose inputs changed re-evaluated — then commit it into the target
  // class's pool (a fresh column, fully overwritten). Steady-state
  // structural churn allocates only when a never-seen tree shape (or
  // transition) must be compiled.
  class_pool& P = *lane_pool_[lane];
  const std::uint32_t colA = lane_col_[lane];
  const auto n = static_cast<std::uint32_t>(C.nodes.size());
  const std::uint32_t host = md.host;

  // Per-pool transition cache: mi -> transition, filled on first fire.
  // Transitions are boxed (stable addresses), so the raw pointer is safe.
  // Only valid when C IS the pool's class: a family lane's outcome depends
  // on its member class, which varies per lane within the pool.
  const transition* trp = nullptr;
  if (prop_rowmap == nullptr) {
    const auto mi_self = static_cast<std::uint32_t>(&md - C.matches.data());
    trp = P.tr_cache[mi_self];
    if (trp == nullptr) {
      trp = &find_transition(C, md, rp);
      P.tr_cache[mi_self] = trp;
    }
  } else {
    trp = &find_transition(C, md, rp);
  }
  const transition& tr = *trp;
  const shape_class* C2 = tr.to;
  const std::vector<std::uint32_t>& origin = tr.origin;
  const auto n2 = static_cast<std::uint32_t>(C2->nodes.size());
  const std::uint32_t new_host = tr.new_host;
  const std::uint32_t new_bound = tr.new_bound;

  // ---- staging target: the next column is staged exactly once ----
  // Direct mode writes straight into the target pool's freshly allocated
  // column (allocated while colA is still live, so they never alias) —
  // one strided pass instead of dense staging plus a scattered commit.
  // The dense-scratch path remains only for the rare same-class rewrite
  // from a full-width pool, where the lane must reuse its own column. Both
  // paths address cells as base[row * st]: st = cap for a pool column,
  // st = 1 for the dense scratch. NOTE: alloc_col can GROW P2 (double its
  // cap and re-stride its strips) — when P2 is P, every cached P pointer
  // or stride must be read after this block, never before.
  class_pool& P2 = pool_for(C2);
  const bool direct =
      (&P2 != &P) || !P2.free_cols.empty() || P2.cap < width();
  std::uint32_t colB = kNone;
  std::size_t st = 1;
  std::uint64_t* tc = nullptr;
  std::uint64_t* tw = nullptr;
  double* tp = nullptr;
  double* ts = nullptr;
  if (direct) {
    colB = alloc_col(P2);
    P2.cell_of[colB] = lane_cell_[lane];
    st = P2.cap;
    tc = P2.content.data() + colB;
    tw = P2.wrap.data() + colB;
    tp = P2.prop.data() + colB;
    ts = P2.block_sub.data() + colB;
  } else {
    new_content_.resize(std::size_t{n2} * num_species_);
    new_wrap_.resize(std::size_t{n2} * num_species_);
    new_prop_.resize(C2->matches.size());
    new_block_sub_.resize(n2);
    tc = new_content_.data();
    tw = new_wrap_.data();
    tp = new_prop_.data();
    ts = new_block_sub_.data();
  }

  // Old-column accessors: stride read AFTER any same-pool growth above.
  const std::size_t capA = P.cap;
  const auto old_cell = [&](std::uint32_t node, species_id s) {
    return P.content[(std::size_t{node} * num_species_ + s) * capA + colA];
  };
  const auto old_wrap_cell = [&](std::uint32_t node, species_id s) {
    return P.wrap[(std::size_t{node} * num_species_ + s) * capA + colA];
  };
  const auto old_prop = [&](std::uint32_t mi) {
    const std::uint32_t row = prop_rowmap != nullptr ? prop_rowmap[mi] : mi;
    return P.prop[std::size_t{row} * capA + colA];
  };

  // ---- counts, carried by origin then edited ----
  for (std::uint32_t i = 0; i < n2; ++i) {
    const std::uint32_t o = origin[i];
    std::uint64_t* c = tc + std::size_t{i} * num_species_ * st;
    std::uint64_t* w = tw + std::size_t{i} * num_species_ * st;
    if (o >= n) {
      for (species_id s = 0; s < num_species_; ++s) c[std::size_t{s} * st] = 0;
      for (species_id s = 0; s < num_species_; ++s) w[std::size_t{s} * st] = 0;
      for (const sp_count& rc : rp.creations[o - n].content)
        c[std::size_t{rc.sp} * st] += rc.n;
      for (const sp_count& rc : rp.creations[o - n].wrap)
        w[std::size_t{rc.sp} * st] += rc.n;
    } else {
      for (species_id s = 0; s < num_species_; ++s) {
        c[std::size_t{s} * st] = old_cell(o, s);
        w[std::size_t{s} * st] = old_wrap_cell(o, s);
      }
    }
  }
  std::uint64_t* host_c = tc + std::size_t{new_host} * num_species_ * st;
  const auto bump = [&](std::uint64_t* row, const sp_delta& d) {
    std::uint64_t& cell = row[std::size_t{d.sp} * st];
    cell = static_cast<std::uint64_t>(static_cast<std::int64_t>(cell) + d.d);
  };
  for (const sp_delta& d : rp.host_delta) bump(host_c, d);
  if (rp.has_child) {
    if (rp.fate == child_fate::keep) {
      std::uint64_t* cc = tc + std::size_t{new_bound} * num_species_ * st;
      for (const sp_delta& d : rp.child_delta) bump(cc, d);
    } else if (rp.fate == child_fate::dissolve) {
      // Release the dissolved child's post-edit content plus its membrane
      // into the host (exact integer adds; order is immaterial). Old-column
      // reads stay valid: colA is freed only after staging completes.
      for (species_id s = 0; s < num_species_; ++s)
        host_c[std::size_t{s} * st] +=
            old_cell(md.child, s) + old_wrap_cell(md.child, s);
      for (const sp_delta& d : rp.child_delta) bump(host_c, d);
    }
  }

  // ---- propensities: per-match carry, re-evaluating only changed inputs.
  // A match value is a pure function of the counts it reads, so any match
  // whose host row, bound-child row, and existence are unchanged keeps its
  // value bit-exactly. Structural edits change: the host's content and
  // child list, the kept bound child's content, and nothing else — so only
  // the host block (selectively), the parent block's matches *binding the
  // host* (selectively), the kept bound child's block, and created nodes'
  // blocks can need re-evaluation.
  eval_list_.clear();

  // Conservative set of host-content species that changed (over-marking
  // only costs a re-evaluation, which returns the identical value).
  changed_host_.assign(num_species_, 0);
  for (const sp_delta& d : rp.host_delta) changed_host_[d.sp] = 1;
  if (rp.has_child && rp.fate == child_fate::dissolve) {
    for (species_id s = 0; s < num_species_; ++s)
      if ((old_cell(md.child, s) | old_wrap_cell(md.child, s)) != 0)
        changed_host_[s] = 1;
    for (const sp_delta& d : rp.child_delta) changed_host_[d.sp] = 1;
  }
  const auto reads_changed_host = [&](const std::vector<species_id>& reads) {
    for (const species_id s : reads)
      if (changed_host_[s] != 0) return true;
    return false;
  };

  const std::uint32_t old_parent =
      C.nodes[host].parent < 0 ? kNone
                               : static_cast<std::uint32_t>(C.nodes[host].parent);

  for (std::uint32_t i = 0; i < n2; ++i) {
    const std::uint32_t o = origin[i];
    const std::uint32_t first2 = C2->block_first[i];
    const std::uint32_t cnt2 = C2->block_count[i];
    if (o >= n) {  // created this firing: everything is new
      for (std::uint32_t mi = first2; mi < first2 + cnt2; ++mi)
        eval_list_.push_back(mi);
      continue;
    }
    if (i == new_host) {
      // Child list and (possibly) content changed: walk the new block with
      // a forward cursor over the old block (relative order of surviving
      // children is preserved, so old counterparts appear in order).
      std::uint32_t cursor = C.block_first[host];
      const std::uint32_t old_end = cursor + C.block_count[host];
      for (std::uint32_t mi = first2; mi < first2 + cnt2; ++mi) {
        const match_desc& m2 = C2->matches[mi];
        const std::uint32_t oc_id =
            m2.child == kNone ? kNone : origin[m2.child];
        const bool was_child_of_host =
            m2.child == kNone ||
            (oc_id < n && C.nodes[oc_id].parent ==
                              static_cast<std::int32_t>(host));
        std::uint32_t old_mi = kNone;
        if (was_child_of_host) {
          while (cursor < old_end) {
            const match_desc& mo = C.matches[cursor];
            const bool hit = mo.rule == m2.rule &&
                             mo.child == (m2.child == kNone ? kNone : oc_id);
            ++cursor;
            if (hit) {
              old_mi = cursor - 1;
              break;
            }
          }
        }
        const rule_plan& pj = plans_[m2.rule];
        const bool bound_child_edited =
            m2.child != kNone && oc_id == md.child;  // kept + content delta
        if (old_mi != kNone && !bound_child_edited &&
            !reads_changed_host(pj.host_reads)) {
          tp[std::size_t{mi} * st] = old_prop(old_mi);
        } else {
          eval_list_.push_back(mi);
        }
      }
      continue;
    }
    if (old_parent != kNone && o == old_parent) {
      // The parent's own content and child list are unchanged (edits happen
      // at/below the host), so the block is positionally identical; only
      // matches binding the host can have changed inputs.
      util::ensures(cnt2 == C.block_count[o], "parent block shape mismatch");
      for (std::uint32_t k = 0; k < cnt2; ++k) {
        const match_desc& m2 = C2->matches[first2 + k];
        const bool dirty = m2.child == new_host &&
                           reads_changed_host(plans_[m2.rule].child_reads);
        if (dirty)
          eval_list_.push_back(first2 + k);
        else
          tp[std::size_t{first2 + k} * st] = old_prop(C.block_first[o] + k);
      }
      continue;
    }
    if (i == new_bound) {  // kept bound child with edited content
      for (std::uint32_t mi = first2; mi < first2 + cnt2; ++mi)
        eval_list_.push_back(mi);
      continue;
    }
    // Untouched subtree: counts, children, and therefore every match value
    // and the block fold carry over verbatim.
    util::ensures(cnt2 == C.block_count[o], "carried block shape mismatch");
    for (std::uint32_t k = 0; k < cnt2; ++k)
      tp[std::size_t{first2 + k} * st] = old_prop(C.block_first[o] + k);
    ts[std::size_t{i} * st] = P.block_sub[std::size_t{o} * capA + colA];
  }

  const rate_tape& T = *tape_for_lane(lane);
  for (const std::uint32_t mi : eval_list_) {
    const match_desc& m2 = C2->matches[mi];
    const tape_program& pg = T.program(m2.rule);
    const std::uint64_t* hc = tc + std::size_t{m2.host} * num_species_ * st;
    const std::uint64_t* cw = nullptr;
    const std::uint64_t* cc = nullptr;
    if (m2.child != kNone) {
      cw = tw + std::size_t{m2.child} * num_species_ * st;
      cc = tc + std::size_t{m2.child} * num_species_ * st;
    }
    tp[std::size_t{mi} * st] = T.eval(pg, hc, cw, cc, st);
  }
  // Re-fold every block that was not carried whole (canonical order keeps
  // carried-entry sums bit-identical to a full re-enumeration).
  for (std::uint32_t i = 0; i < n2; ++i) {
    const std::uint32_t o = origin[i];
    const bool carried_whole = o < n && i != new_host && i != new_bound &&
                               !(old_parent != kNone && o == old_parent);
    if (carried_whole) continue;
    const std::uint32_t first2 = C2->block_first[i];
    double sub = 0.0;
    for (std::uint32_t mi = first2; mi < first2 + C2->block_count[i]; ++mi)
      sub += tp[std::size_t{mi} * st];
    ts[std::size_t{i} * st] = sub;
  }

  // ---- commit ----
  free_col(P, colA);
  if (!direct) {
    // Dense fallback: the staged column scatters into the (possibly
    // recycled) pool column only now that staging is complete.
    colB = alloc_col(P2);
    P2.cell_of[colB] = lane_cell_[lane];
    const std::size_t capB = P2.cap;
    for (std::size_t r = 0; r < std::size_t{n2} * num_species_; ++r) {
      P2.content[r * capB + colB] = new_content_[r];
      P2.wrap[r * capB + colB] = new_wrap_[r];
    }
    for (std::size_t mi = 0; mi < C2->matches.size(); ++mi)
      P2.prop[mi * capB + colB] = new_prop_[mi];
    for (std::size_t b = 0; b < n2; ++b)
      P2.block_sub[b * capB + colB] = new_block_sub_[b];
  }
  lane_pool_[lane] = &P2;
  lane_col_[lane] = colB;

  // Family entry: a lane landing on a class with an eligible trailing slot
  // run is re-laid into the family's shared pool, so later slot appends and
  // dissolves run in place and the ensemble stops scattering over per-K
  // pools. A lane landing directly on a family's layout class already sits
  // in the family pool — it just needs its slot count pinned.
  if (P2.fam != nullptr) {
    lane_slots_[lane] = P2.fam->max_slots;
  } else if (family* F = family_entry_for(C2); F != nullptr) {
    migrate_to_family(lane, *F);
  }
}

void batch_engine::fire(std::size_t lane, double target) {
  class_pool& P = *lane_pool_[lane];
  const std::uint32_t col = lane_col_[lane];
  const shape_class& C = *P.cls;
  const std::size_t cap = P.cap;

  // Two-level selection, scalar-engine arithmetic: prefix walk over the
  // pre-order block subtotals, then a left-to-right scan inside the block,
  // with the same floating-point-tail fallbacks (last feasible match of the
  // block, then of the whole term).
  std::uint32_t chosen = kNone;
  double cum = 0.0;
  // Family lanes stop the walk at their own node count: the reserve
  // blocks' subtotals are exact zeros, invisible to both sum and scan.
  const std::size_t n = live_nodes(lane);
  for (std::uint32_t b = 0; b < n; ++b) {
    const double sub = P.block_sub[std::size_t{b} * cap + col];
    const double with = cum + sub;
    if (sub > 0.0 && with >= target) {
      double inner = cum;
      const std::uint32_t first = C.block_first[b];
      const std::uint32_t count = C.block_count[b];
      for (std::uint32_t mi = first; mi < first + count; ++mi) {
        const double p = P.prop[std::size_t{mi} * cap + col];
        if (p <= 0.0) continue;  // absent from the scalar match list
        inner += p;
        if (inner >= target) {
          chosen = mi;
          break;
        }
      }
      if (chosen == kNone) {
        for (std::uint32_t mi = first + count; mi-- > first;) {
          if (P.prop[std::size_t{mi} * cap + col] > 0.0) {
            chosen = mi;
            break;
          }
        }
      }
      break;
    }
    cum = with;
  }
  if (chosen == kNone) {
    for (std::uint32_t mi = static_cast<std::uint32_t>(C.matches.size());
         mi-- > 0;) {
      if (P.prop[std::size_t{mi} * cap + col] > 0.0) {
        chosen = mi;
        break;
      }
    }
  }
  util::ensures(chosen != kNone, "batch SSA selection on empty match set");

  const match_desc& md = C.matches[chosen];
  const rule_plan& rp = plans_[md.rule];
  if (rp.structural) {
    apply_structural(lane, md, rp);
  } else {
    apply_fast(P, col, md, rp);
  }
  ++steps_[lane];
}

void batch_engine::drain_lane(std::size_t lane, double t_end,
                              double sample_period,
                              std::vector<trajectory_sample>& out) {
  // Per-lane scalar drain to the quantum horizon. The per-lane operation
  // order (total fold, clock draw, sample emission, selection draw, fire)
  // and every arithmetic expression match the lockstep rounds exactly —
  // lanes own independent RNG streams, so peeling one lane out of the
  // round cadence cannot perturb any other lane's draws.
  while (true) {
    ++round_;  // keeps the per-round dirty-list dedupe stamps unique
    const class_pool& P = *lane_pool_[lane];
    const double total =
        fold_total_col(P, lane_col_[lane], live_nodes(lane));
    if (total <= 0.0) {
      stalled_[lane] = 1;
      emit_frozen_tail(lane, t_end, sample_period, out);
      done_[lane] = 1;
      return;
    }
    double t_next;
    if (has_pending_[lane] != 0) {
      t_next = pending_[lane];
    } else {
      const double u = rng_.next_uniform_pos(lane);
      t_next = time_[lane] + (-std::log(u) / total);
    }
    while (next_sample_t_[lane] <= q_emit_horizon_[lane] &&
           next_sample_t_[lane] <= t_next) {
      record_sample(lane, next_sample_t_[lane], out);
      next_sample_t_[lane] = sample_time(++next_sample_k_[lane], sample_period);
    }
    if (t_next > q_horizon_[lane]) {
      pending_[lane] = t_next;
      has_pending_[lane] = 1;
      time_[lane] = q_horizon_[lane];
      done_[lane] = time_[lane] >= t_end ? 1 : 0;
      return;
    }
    has_pending_[lane] = 0;
    const double u2 = rng_.next_uniform_pos(lane);
    fire(lane, u2 * total);
    time_[lane] = t_next;
    // Immediate flush: the next iteration's total fold must see this
    // fire's propensity updates (single-column masks stay below the wide
    // thresholds, so this is the scalar incremental path).
    for (class_pool* FP : flush_pools_) flush_pool(*FP);
    flush_pools_.clear();
  }
}

void batch_engine::step_quantum(
    double quantum, double t_end, double sample_period,
    std::vector<std::vector<trajectory_sample>>& out) {
  util::expects(quantum > 0.0, "quantum must be positive");
  util::expects(sample_period > 0.0, "sample period must be positive");
  const std::size_t w = width();
  out.resize(w);

  active_lanes_.clear();
  for (std::size_t l = 0; l < w; ++l) {
    if (done_[l] != 0 && time_[l] >= t_end) continue;
    done_[l] = 0;
    q_horizon_[l] = std::min(time_[l] + quantum, t_end);
    q_emit_horizon_[l] =
        q_horizon_[l] + sample_tolerance(q_horizon_[l], sample_period);
    // Cache the next sample instant: the hot Phase B loop tests it once
    // per step but crosses a grid point rarely. Recomputed only on grid
    // advance, bit-identical to calling sample_time() at each test.
    next_sample_t_[l] = sample_time(next_sample_k_[l], sample_period);
    active_lanes_.push_back(static_cast<std::uint32_t>(l));
  }

  // Lockstep rounds, phased across the ensemble: every live lane executes
  // at most one SSA step per round, and each phase runs lane-batched so
  // totals, clock draws, and the propensity flush can go wide. Per lane
  // the order of operations (and therefore its RNG draw sequence: clock
  // draw, then selection draw) is exactly the scalar engine's; lanes own
  // independent streams, so batching draws across lanes is order-free.
  while (!active_lanes_.empty()) {
    ++round_;

    // ---- Phase A: stall tails, per-pool totals, clock draws ----------
    {
      std::size_t i = 0;
      while (i < active_lanes_.size()) {
        const std::size_t l = active_lanes_[i];
        if (stalled_[l] != 0) {
          emit_frozen_tail(l, t_end, sample_period, out[l]);
          done_[l] = 1;  // time_ == t_end
          active_lanes_[i] = active_lanes_.back();
          active_lanes_.pop_back();
        } else {
          ++i;
        }
      }
    }
    if (active_lanes_.empty()) break;

    totals_pools_.clear();
    for (const std::uint32_t l : active_lanes_) {
      class_pool* P = lane_pool_[l];
      if (P->totals_round != round_) {
        P->totals_round = round_;
        P->totals_need = 0;
        P->totals_wide = false;
        totals_pools_.push_back(P);
      }
      ++P->totals_need;
    }

    // Sparse tail: when live lanes are spread too thin across their pools
    // for row sweeps to pay (the long tail of a quantum, or shape-churning
    // models whose lanes scatter over many classes), finish the quantum in
    // per-lane drain loops — same arithmetic, none of the round overhead.
    if (active_lanes_.size() < drain_density_ * totals_pools_.size()) {
      for (const std::uint32_t l : active_lanes_)
        drain_lane(l, t_end, sample_period, out[l]);
      active_lanes_.clear();
      break;
    }

    for (class_pool* P : totals_pools_) {
      if (P->totals_need < wide_total_min_) continue;
      kernels::fold_rows_wide(P->block_sub.data(), 0, P->hot_nodes, P->cap,
                              P->total.data());
      P->totals_wide = true;
    }

    draw_list_.clear();
    for (const std::uint32_t l : active_lanes_) {
      const class_pool& P = *lane_pool_[l];
      const std::uint32_t col = lane_col_[l];
      const double total =
          P.totals_wide ? P.total[col] : fold_total_col(P, col, live_nodes(l));
      total_scratch_[l] = total;
      if (total <= 0.0) {
        stalled_[l] = 1;  // next round emits the frozen tail
        continue;
      }
      if (has_pending_[l] != 0)
        t_next_scratch_[l] = pending_[l];
      else
        draw_list_.push_back(l);
    }
    {
      const std::size_t m = draw_list_.size();
      u_scratch_.resize(m);
      const bool dense = m == w;  // every lane draws: vectorized fill
      if (dense)
        rng_.fill_uniform_pos_all(u_scratch_.data());
      else
        rng_.fill_uniform_pos(draw_list_.data(), m, u_scratch_.data());
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t l = draw_list_[j];
        const double u = u_scratch_[dense ? l : j];
        // rng_stream::next_exponential's expression, over the batch draw.
        t_next_scratch_[l] = time_[l] + (-std::log(u) / total_scratch_[l]);
      }
    }

    // ---- Phase B: sample emission, parking ---------------------------
    fire_list_.clear();
    {
      std::size_t i = 0;
      while (i < active_lanes_.size()) {
        const std::size_t l = active_lanes_[i];
        if (stalled_[l] != 0) {  // newly stalled: tail next round
          ++i;
          continue;
        }
        const double t_next = t_next_scratch_[l];
        while (next_sample_t_[l] <= q_emit_horizon_[l] &&
               next_sample_t_[l] <= t_next) {
          record_sample(l, next_sample_t_[l], out[l]);
          next_sample_t_[l] = sample_time(++next_sample_k_[l], sample_period);
        }
        if (t_next > q_horizon_[l]) {
          // Keep the deferred reaction across the quantum boundary: the
          // sample path stays bit-for-bit independent of the quantum size.
          pending_[l] = t_next;
          has_pending_[l] = 1;
          time_[l] = q_horizon_[l];
          done_[l] = time_[l] >= t_end ? 1 : 0;
          active_lanes_[i] = active_lanes_.back();
          active_lanes_.pop_back();
        } else {
          has_pending_[l] = 0;
          fire_list_.push_back(static_cast<std::uint32_t>(l));
          ++i;
        }
      }
    }

    // ---- Phase C: selection draws + firings --------------------------
    {
      const std::size_t m = fire_list_.size();
      u_scratch_.resize(m);
      const bool dense = m == w;
      if (dense)
        rng_.fill_uniform_pos_all(u_scratch_.data());
      else
        rng_.fill_uniform_pos(fire_list_.data(), m, u_scratch_.data());
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t l = fire_list_[j];
        const double u = u_scratch_[dense ? l : j];
        fire(l, u * total_scratch_[l]);
        time_[l] = t_next_scratch_[l];
      }
    }

    // ---- Phase D: deferred propensity/fold flush per touched pool ----
    for (class_pool* P : flush_pools_) flush_pool(*P);
    flush_pools_.clear();
  }
}

std::unique_ptr<term> batch_engine::materialize_state(std::size_t lane) const {
  const class_pool& P = *lane_pool_[lane];
  const std::uint32_t col = lane_col_[lane];
  const shape_class& C = *P.cls;
  const std::size_t cap = P.cap;
  const auto build = [&](auto&& self, std::uint32_t i) -> std::unique_ptr<term> {
    auto c = std::make_unique<compartment>(C.nodes[i].type, num_species_);
    for (species_id s = 0; s < num_species_; ++s) {
      const std::uint64_t cc =
          P.content[(std::size_t{i} * num_species_ + s) * cap + col];
      const std::uint64_t cw =
          P.wrap[(std::size_t{i} * num_species_ + s) * cap + col];
      if (cc != 0) c->content().set(s, cc);
      if (cw != 0) c->wrap().set(s, cw);
    }
    for (const std::uint32_t k : C.children[i]) {
      // Family layout: children beyond the lane's live slot count are the
      // zero-filled reserve rows, not part of the lane's term.
      if (P.fam != nullptr && k >= P.fam->skeleton_n + lane_slots_[lane])
        continue;
      c->add_child(self(self, k));
    }
    return c;
  };
  return build(build, 0);
}

}  // namespace cwc::batch
