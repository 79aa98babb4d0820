// Unit tests for the util substrate: RNG streams, CLI, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

TEST(Rng, DeterministicForSameSeedAndStream) {
  util::rng_stream a(42, 7);
  util::rng_stream b(42, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentStreamsDiffer) {
  util::rng_stream a(42, 0);
  util::rng_stream b(42, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, DifferentSeedsDiffer) {
  util::rng_stream a(1, 0);
  util::rng_stream b(2, 0);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  util::rng_stream r(7, 0);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = r.next_uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformPosNeverZero) {
  util::rng_stream r(3, 3);
  for (int i = 0; i < 100000; ++i) ASSERT_GT(r.next_uniform_pos(), 0.0);
}

TEST(Rng, ExponentialMean) {
  util::rng_stream r(11, 0);
  const double lambda = 2.5;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(lambda);
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  util::rng_stream r(1, 1);
  EXPECT_THROW(r.next_exponential(0.0), util::precondition_error);
  EXPECT_THROW(r.next_exponential(-1.0), util::precondition_error);
}

TEST(Rng, NextBelowInRangeAndCoversAll) {
  util::rng_stream r(5, 5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalMoments) {
  util::rng_stream r(13, 0);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.next_normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(RngLaneBank, LanesMatchScalarStreamsBitForBit) {
  // Lane i of the bank is the EXACT stream rng_stream(seed, first_id + i),
  // through the per-lane scalar entry points, with interleaved draw kinds.
  constexpr std::size_t n = 9;
  util::rng_lane_bank bank(42, 1000, n);
  std::vector<util::rng_stream> ref;
  ref.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ref.emplace_back(42, 1000 + i);
  for (int round = 0; round < 200; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bank.next_u64(i), ref[i].next_u64()) << "lane " << i;
      ASSERT_EQ(bank.next_uniform_pos(i), ref[i].next_uniform_pos())
          << "lane " << i;
    }
  }
}

TEST(RngLaneBank, DenseFillMatchesScalarStreams) {
  constexpr std::size_t n = 16;
  util::rng_lane_bank bank(7, 0, n);
  std::vector<util::rng_stream> ref;
  ref.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ref.emplace_back(7, i);
  std::vector<double> out(n);
  for (int round = 0; round < 200; ++round) {
    bank.fill_uniform_pos_all(out.data());
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(out[i], ref[i].next_uniform_pos())
          << "lane " << i << " round " << round;
  }
}

TEST(RngLaneBank, SubsetFillsConsumeLikeIndependentStreams) {
  // Shuffled partial subsets round after round (the lockstep engine's
  // draw/fire lists): each listed lane's draw continues ITS stream exactly;
  // unlisted lanes stay untouched. Interleave occasional dense fills to
  // prove the two entry points consume from the same state.
  constexpr std::size_t n = 12;
  util::rng_lane_bank bank(11, 5, n);
  std::vector<util::rng_stream> ref;
  ref.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ref.emplace_back(11, 5 + i);
  std::mt19937 pick(99);
  std::vector<std::uint32_t> lanes;
  std::vector<double> out;
  for (int round = 0; round < 300; ++round) {
    if (round % 7 == 3) {
      out.resize(n);
      bank.fill_uniform_pos_all(out.data());
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], ref[i].next_uniform_pos()) << "dense " << round;
      continue;
    }
    lanes.clear();
    for (std::uint32_t i = 0; i < n; ++i)
      if (pick() % 3 != 0) lanes.push_back(i);
    std::shuffle(lanes.begin(), lanes.end(), pick);
    out.resize(lanes.size());
    bank.fill_uniform_pos(lanes.data(), lanes.size(), out.data());
    for (std::size_t j = 0; j < lanes.size(); ++j)
      ASSERT_EQ(out[j], ref[lanes[j]].next_uniform_pos())
          << "lane " << lanes[j] << " round " << round;
  }
}

TEST(Cli, ParsesOptionsAndPositionals) {
  // NB: a bare flag directly followed by a positional would swallow it
  // (`--fast input.txt`); bare flags go last or use `=` (documented).
  const char* argv[] = {"prog", "--workers", "8", "--fast", "--rate=0.5",
                        "input.txt"};
  util::cli cli(6, argv);
  EXPECT_EQ(cli.get_int("workers", 0), 8);
  EXPECT_TRUE(cli.get_bool("fast", false));
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 0.5);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
}

TEST(Cli, ThrowsOnMalformedNumbers) {
  const char* argv[] = {"prog", "--n", "abc"};
  util::cli cli(3, argv);
  EXPECT_THROW(cli.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_bool("n", false), std::invalid_argument);
}

TEST(Table, RendersAlignedColumns) {
  util::table t({"name", "value"});
  t.add_row({"alpha", util::table::num(1.5)});
  t.add_row({"b", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsRaggedRows) {
  util::table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), util::precondition_error);
}

TEST(Check, ExpectsAndEnsures) {
  EXPECT_NO_THROW(util::expects(true, "ok"));
  EXPECT_THROW(util::expects(false, "bad"), util::precondition_error);
  EXPECT_THROW(util::ensures(false, "bad"), util::postcondition_error);
}

}  // namespace
