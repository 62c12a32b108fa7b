#include <gtest/gtest.h>

#include <cmath>

#include "features/feature_extractor.hpp"
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

}  // namespace
}  // namespace harl
