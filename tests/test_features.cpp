#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "features/feature_extractor.hpp"
#include "workloads/networks.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

struct FeatureFixture : ::testing::Test {
  FeatureFixture()
      : hw(HardwareConfig::xeon_6226r()),
        fx(&hw),
        graph(make_gemm(256, 128, 64)),
        sketches(generate_sketches(graph)),
        rng(1) {}

  HardwareConfig hw;
  FeatureExtractor fx;
  Subgraph graph;
  std::vector<Sketch> sketches;
  Rng rng;
};

TEST_F(FeatureFixture, FixedWidthAndFinite) {
  for (int i = 0; i < 50; ++i) {
    Schedule s = random_schedule(sketches[static_cast<std::size_t>(i % 3)],
                                 hw.num_unroll_options(), rng);
    std::vector<double> f = fx.extract(s);
    ASSERT_EQ(f.size(), static_cast<std::size_t>(FeatureExtractor::kNumFeatures));
    for (double v : f) ASSERT_TRUE(std::isfinite(v));
  }
}

TEST_F(FeatureFixture, GlobalFeaturesMatchWorkload) {
  Schedule s = random_schedule(sketches[0], hw.num_unroll_options(), rng);
  std::vector<double> f = fx.extract(s);
  EXPECT_NEAR(f[0], std::log2(1.0 + 2.0 * 256 * 128 * 64), 1e-9);
  EXPECT_EQ(f[3], 1.0);  // one stage
  EXPECT_EQ(f[4], 0.0);  // no cache write on sketch 0
}

TEST_F(FeatureFixture, SketchFlagsVisible) {
  Schedule cw = random_schedule(sketches[1], hw.num_unroll_options(), rng);
  Schedule rf = random_schedule(sketches[2], hw.num_unroll_options(), rng);
  EXPECT_EQ(fx.extract(cw)[4], 1.0);
  EXPECT_EQ(fx.extract(rf)[5], 1.0);
}

TEST_F(FeatureFixture, UnrollKnobChangesFeature) {
  Schedule s = random_schedule(sketches[0], hw.num_unroll_options(), rng);
  s.stages[0].unroll_index = 0;
  double f0 = fx.extract(s)[12];
  s.stages[0].unroll_index = hw.num_unroll_options() - 1;
  double f1 = fx.extract(s)[12];
  EXPECT_NE(f0, f1);
}

TEST_F(FeatureFixture, TileChangesMoveFeatures) {
  Schedule a = random_schedule(sketches[0], hw.num_unroll_options(), rng);
  Schedule b = a;
  b.stages[0].tiles[0] = trivial_tile(256, kSpatialTileLevels);
  std::vector<double> fa = fx.extract(a);
  std::vector<double> fb = fx.extract(b);
  EXPECT_NE(fa, fb);
}

TEST_F(FeatureFixture, SlotFeaturesNormalized) {
  ActionSpace space(sketches[0], hw.num_unroll_options());
  Schedule s = random_schedule(sketches[0], hw.num_unroll_options(), rng);
  std::vector<double> sf = slot_features(s, space.slots());
  ASSERT_EQ(sf.size(), static_cast<std::size_t>(space.num_slots()));
  for (double v : sf) {
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 1.0);
  }
}

TEST_F(FeatureFixture, RlObservationDimensionIsStable) {
  ActionSpace space(sketches[0], hw.num_unroll_options());
  Schedule s1 = random_schedule(sketches[0], hw.num_unroll_options(), rng);
  Schedule s2 = random_schedule(sketches[0], hw.num_unroll_options(), rng);
  std::vector<double> o1 = rl_observation(fx, space, s1);
  std::vector<double> o2 = rl_observation(fx, space, s2);
  EXPECT_EQ(o1.size(), o2.size());
  EXPECT_EQ(o1.size(), static_cast<std::size_t>(FeatureExtractor::kNumFeatures +
                                                space.num_slots() + 3));
  EXPECT_EQ(rl_observation_dim(space), FeatureExtractor::kNumFeatures + space.num_slots() + 3);
}

TEST_F(FeatureFixture, ElementwiseScheduleExtractsGlobalsOnly) {
  Subgraph g = make_elementwise(1 << 16, 2.0);
  auto sks = generate_sketches(g);
  Schedule s = random_schedule(sks[0], hw.num_unroll_options(), rng);
  std::vector<double> f = fx.extract(s);
  EXPECT_GT(f[0], 0);  // flops present
  for (double v : f) ASSERT_TRUE(std::isfinite(v));
}

/// Every sketch of `g`: the input support is strictly ascending inside the
/// observation, and random schedules and seeded random walks of legal joint
/// actions never set a column outside it.
void expect_support_holds_every_nonzero_column(const Subgraph& g, const HardwareConfig& hw,
                                               const FeatureExtractor& fx) {
  for (const Sketch& sk : generate_sketches(g)) {
    SCOPED_TRACE(g.name() + "/" + sk.tag);
    ActionSpace space(sk, hw.num_unroll_options());
    const std::vector<int> support = rl_observation_support(space);
    const int dim = rl_observation_dim(space);
    ASSERT_FALSE(support.empty());
    ASSERT_GE(support.front(), 0);
    ASSERT_LT(support.back(), dim);
    ASSERT_TRUE(std::adjacent_find(support.begin(), support.end(), [](int a, int b) {
                  return a >= b;
                }) == support.end());
    std::vector<bool> kept(static_cast<std::size_t>(dim), false);
    for (int c : support) kept[static_cast<std::size_t>(c)] = true;
    auto expect_inside = [&](const Schedule& s) {
      const std::vector<double> obs = rl_observation(fx, space, s);
      for (std::size_t c = 0; c < obs.size(); ++c) {
        ASSERT_TRUE(kept[c] || obs[c] == 0.0) << "column " << c << " = " << obs[c];
      }
    };
    Rng rng(static_cast<std::uint64_t>(sk.identity_salt) ^ 0x5eedULL);
    std::vector<bool> mask;
    std::vector<int> legal;
    for (int walk = 0; walk < 8; ++walk) {
      Schedule s = random_schedule(sk, hw.num_unroll_options(), rng);
      expect_inside(s);
      for (int step = 0; step < 16; ++step) {
        space.tile_action_mask(s, &mask);
        legal.clear();
        for (std::size_t a = 0; a < mask.size(); ++a) {
          if (mask[a]) legal.push_back(static_cast<int>(a));
        }
        JointAction ja{legal[rng.pick_index(legal.size())],
                       rng.next_int(0, kDeltaHeadSize - 1),
                       rng.next_int(0, kDeltaHeadSize - 1),
                       rng.next_int(0, kDeltaHeadSize - 1)};
        space.apply(&s, ja);
        expect_inside(s);
      }
    }
  }
}

/// rl_observation_support may keep a column that is always zero, never drop
/// one that can be nonzero: every sketch of every task of the shipped
/// networks at batch 1 and kMaxBatch, and GEMMs.
TEST(ObservationSupport, HoldsEveryNonzeroColumnOfEverySketch) {
  const HardwareConfig hw = HardwareConfig::xeon_6226r();
  const FeatureExtractor fx(&hw);
  for (const std::string name : {"bert", "resnet50", "mobilenet_v2"}) {
    for (std::int64_t batch : {std::int64_t{1}, kMaxBatch}) {
      SCOPED_TRACE(name + " batch " + std::to_string(batch));
      Network net = make_network(name, batch);
      for (const Subgraph& g : net.subgraphs) {
        expect_support_holds_every_nonzero_column(g, hw, fx);
      }
    }
  }
  expect_support_holds_every_nonzero_column(make_gemm(256, 128, 64), hw, fx);
  expect_support_holds_every_nonzero_column(make_gemm(1, 4096, 7), hw, fx);
  expect_support_holds_every_nonzero_column(make_elementwise(1 << 16, 2.0), hw, fx);
}

/// The rules drop what they say on a plain GEMM: sketch 0 ("T") sets no
/// sketch flag, has id 0, no compute-at knob and two spatial axes and one
/// reduction axis; every slot's extent is above 1.
TEST_F(FeatureFixture, ObservationSupportDropsWhatTheRulesName) {
  ActionSpace space(sketches[0], hw.num_unroll_options());
  ASSERT_EQ(sketches[0].sketch_id, 0);
  ASSERT_EQ(sketches[0].primary_compute_at_stage, -1);
  std::vector<int> want;
  for (int c = 0; c < 4; ++c) want.push_back(c);
  for (int c = 7; c < 31; ++c) {
    if (c != 14) want.push_back(c);
  }
  for (int c : {31, 32, 35, 37, 38, 39, 40}) want.push_back(c);
  const int slots = space.num_slots();
  for (int c = 0; c < slots; ++c) want.push_back(FeatureExtractor::kNumFeatures + c);
  // Compute-at column dropped; parallel depth and unroll kept.
  want.push_back(FeatureExtractor::kNumFeatures + slots + 1);
  want.push_back(FeatureExtractor::kNumFeatures + slots + 2);
  EXPECT_EQ(rl_observation_support(space), want);
}

}  // namespace
}  // namespace harl
