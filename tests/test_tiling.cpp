#include <gtest/gtest.h>

#include "sched/tiling.hpp"

namespace harl {
namespace {

TEST(Factorize, SmallCases) {
  EXPECT_EQ(factorize(1), (std::vector<std::int64_t>{}));
  EXPECT_EQ(factorize(2), (std::vector<std::int64_t>{2}));
  EXPECT_EQ(factorize(12), (std::vector<std::int64_t>{2, 2, 3}));
  EXPECT_EQ(factorize(97), (std::vector<std::int64_t>{97}));
  EXPECT_EQ(factorize(1024), std::vector<std::int64_t>(10, 2));
}

TEST(Divisors, AscendingAndComplete) {
  EXPECT_EQ(divisors(1), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(divisors(12), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(divisors(97), (std::vector<std::int64_t>{1, 97}));
  EXPECT_EQ(divisors(1024).size(), 11u);
  // The int32 extent with the most divisors: 2^4 3^3 5 7 11 13 17 19.
  EXPECT_EQ(divisors(2095133040).size(), 1600u);
  for (std::int64_t n = 1; n <= 720; ++n) {
    std::vector<std::int64_t> want;
    for (std::int64_t d = 1; d <= n; ++d) {
      if (n % d == 0) want.push_back(d);
    }
    ASSERT_EQ(divisors(n), want) << n;
  }
}

TEST(CountTilings, MatchesPaperGemmExample) {
  // The paper: 1024 = 2^10 into 4 tiling levels gives C(13, 3) = 286 choices.
  EXPECT_EQ(count_tilings(1024, 4), 286);
}

TEST(CountTilings, CompositeAndTrivial) {
  EXPECT_EQ(count_tilings(1, 4), 1);
  EXPECT_EQ(count_tilings(7, 4), 4);        // one prime into 4 slots
  EXPECT_EQ(count_tilings(12, 2), 3 * 2);   // 2^2 -> C(3,1)=3, 3 -> C(2,1)=2
}

TEST(TileVector, ProductAndInnerSize) {
  TileVector t{{4, 2, 8}};
  EXPECT_EQ(t.product(), 64);
  EXPECT_EQ(t.inner_size(0), 64);
  EXPECT_EQ(t.inner_size(1), 16);
  EXPECT_EQ(t.inner_size(2), 8);
  EXPECT_EQ(t.inner_size(3), 1);
}

TEST(TileVector, SmallestMovable) {
  TileVector t{{12, 1, 5}};
  EXPECT_EQ(t.smallest_movable(0), 2);
  EXPECT_EQ(t.smallest_movable(1), 0);  // nothing to move from a 1
  EXPECT_EQ(t.smallest_movable(2), 5);
}

TEST(TileVector, MoveFactorPreservesProduct) {
  TileVector t{{12, 1, 5}};
  std::int64_t before = t.product();
  EXPECT_TRUE(t.move_factor(0, 1));
  EXPECT_EQ(t.product(), before);
  EXPECT_EQ(t.factors[0], 6);
  EXPECT_EQ(t.factors[1], 2);
}

TEST(TileVector, MoveFactorRejectsNoopAndEmptySource) {
  TileVector t{{1, 8}};
  EXPECT_FALSE(t.move_factor(0, 1));  // source is 1
  EXPECT_FALSE(t.move_factor(1, 1));  // same slot
  EXPECT_EQ(t.product(), 8);
}

TEST(TrivialTile, AllInnermost) {
  TileVector t = trivial_tile(24, 4);
  EXPECT_EQ(t.factors, (std::vector<std::int64_t>{1, 1, 1, 24}));
  EXPECT_EQ(t.product(), 24);
}

/// Property sweep: random tilings always satisfy the product invariant and
/// stay closed under factor moves.
class RandomTileProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(RandomTileProperty, ProductInvariantUnderRandomMoves) {
  std::int64_t extent = GetParam();
  Rng rng(static_cast<std::uint64_t>(extent) * 77 + 1);
  for (int rep = 0; rep < 20; ++rep) {
    TileVector t = random_tile(extent, 4, rng);
    ASSERT_EQ(t.product(), extent);
    for (int move = 0; move < 30; ++move) {
      int from = rng.next_int(0, 3);
      int to = rng.next_int(0, 3);
      t.move_factor(from, to);
      ASSERT_EQ(t.product(), extent);
      for (std::int64_t f : t.factors) ASSERT_GE(f, 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Extents, RandomTileProperty,
                         ::testing::Values<std::int64_t>(1, 2, 7, 12, 24, 97, 128,
                                                         224, 768, 1024, 3072));

TEST(RandomTile, ReachesDiverseConfigurations) {
  Rng rng(5);
  std::set<std::string> seen;
  for (int i = 0; i < 200; ++i) seen.insert(random_tile(64, 4, rng).to_string());
  EXPECT_GT(seen.size(), 20u);  // 2^6 into 4 slots has C(9,3)=84 configs
}

TEST(TileVector, ToStringFormat) {
  TileVector t{{2, 3, 4}};
  EXPECT_EQ(t.to_string(), "[2x3x4]");
}

}  // namespace
}  // namespace harl
