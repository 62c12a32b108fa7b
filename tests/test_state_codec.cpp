#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "features/feature_extractor.hpp"
#include "rl/ppo.hpp"
#include "sched/actions.hpp"
#include "sched/tiling.hpp"
#include "workloads/networks.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

constexpr std::uint16_t kSentinel = 0x5a5a;

/// Encodes `s`, then checks the row's three promises: it fills exactly
/// width() values, decodes to a valid schedule with the same fingerprint, and
/// observes to the bytes rl_observation computes from `s` itself.
void expect_round_trip(RlStateCodec& codec, const FeatureExtractor& fx,
                       const ActionSpace& space, const Schedule& s) {
  const auto width = static_cast<std::size_t>(codec.width());
  std::vector<std::uint16_t> row(width + 1, kSentinel);
  codec.encode(s, row.data());
  ASSERT_EQ(row[width], kSentinel) << "encode wrote past width()";

  Schedule back = codec.decode(row.data());
  ASSERT_EQ(back.fingerprint(), s.fingerprint());
  ASSERT_EQ(validate_schedule(back, space.num_unroll_options()), "");

  std::vector<double> want = rl_observation(fx, space, s);
  std::vector<double> got(want.size() + 1, -1.0);
  codec.observe(row.data(), got.data());
  ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)), 0);
  ASSERT_EQ(got.back(), -1.0) << "observe wrote past rl_observation_dim()";
}

/// Every sketch of `g`: random schedules and seeded random walks of legal
/// joint actions round-trip through the codec's uint16 rows.
void expect_sketches_round_trip(const Subgraph& g, const HardwareConfig& hw,
                                const FeatureExtractor& fx) {
  std::vector<Sketch> sketches = generate_sketches(g);
  for (const Sketch& sk : sketches) {
    SCOPED_TRACE(g.name() + "/" + sk.tag);
    ActionSpace space(sk, hw.num_unroll_options());
    RlStateCodec codec(fx, space);
    Rng rng(static_cast<std::uint64_t>(sk.identity_salt));
    std::vector<bool> mask;
    std::vector<int> legal;
    for (int walk = 0; walk < 6; ++walk) {
      Schedule s = random_schedule(sk, hw.num_unroll_options(), rng);
      expect_round_trip(codec, fx, space, s);
      for (int step = 0; step < 12; ++step) {
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
        expect_round_trip(codec, fx, space, s);
      }
    }
  }
}

/// Every sketch of every task of the shipped networks, at batch 1 and at
/// kMaxBatch.
TEST(RlStateCodec, RoundTripsEverySketchOfEveryNetwork) {
  const HardwareConfig hw = HardwareConfig::xeon_6226r();
  const FeatureExtractor fx(&hw);
  for (const std::string name : {"bert", "resnet50", "mobilenet_v2"}) {
    for (std::int64_t batch : {std::int64_t{1}, kMaxBatch}) {
      SCOPED_TRACE(name + " batch " + std::to_string(batch));
      Network net = make_network(name, batch);
      for (const Subgraph& g : net.subgraphs) expect_sketches_round_trip(g, hw, fx);
    }
  }
}

/// The largest GEMM tune_network accepts: 165140 = 2^2 * 5 * 23 * 359.
TEST(RlStateCodec, RoundTripsTheLargestGemm) {
  const HardwareConfig hw = HardwareConfig::xeon_6226r();
  const FeatureExtractor fx(&hw);
  ASSERT_EQ(kMaxGemmDim, 165140);
  expect_sketches_round_trip(make_gemm(kMaxGemmDim, kMaxGemmDim, kMaxGemmDim), hw, fx);
}

TEST(RlStateCodec, WidthCoversEveryDecision) {
  // One tiled GEMM stage: 3 axes (two spatial at 4 levels, one reduction at
  // 2) plus the three knobs.
  const HardwareConfig hw = HardwareConfig::xeon_6226r();
  const FeatureExtractor fx(&hw);
  Subgraph g = make_gemm(256, 128, 64);
  std::vector<Sketch> sketches = generate_sketches(g);
  ActionSpace space(sketches[0], hw.num_unroll_options());
  RlStateCodec codec(fx, space);
  EXPECT_EQ(codec.width(), 2 * kSpatialTileLevels + kReductionTileLevels + 3);
}

// ---------------------------------------------------------------------------
// Rows are checked, not trusted.

struct CodecDeathFixture : ::testing::Test {
  CodecDeathFixture()
      : hw(HardwareConfig::xeon_6226r()),
        fx(&hw),
        graph(make_gemm(256, 128, 64)),
        sketches(generate_sketches(graph)),
        space(sketches[0], hw.num_unroll_options()),
        codec(fx, space),
        rng(3),
        sched(random_schedule(sketches[0], hw.num_unroll_options(), rng)),
        row(static_cast<std::size_t>(codec.width())) {}

  HardwareConfig hw;
  FeatureExtractor fx;
  Subgraph graph;
  std::vector<Sketch> sketches;
  ActionSpace space;
  RlStateCodec codec;
  Rng rng;
  Schedule sched;
  std::vector<std::uint16_t> row;
};

TEST_F(CodecDeathFixture, RejectsScheduleOfAnotherSketch) {
  Schedule other = random_schedule(sketches[1], hw.num_unroll_options(), rng);
  EXPECT_DEATH(codec.encode(other, row.data()), "schedule of another sketch");
}

TEST_F(CodecDeathFixture, RejectsWrongTileLayout) {
  sched.stages[0].tiles[0].factors.push_back(1);  // one level too many
  EXPECT_DEATH(codec.encode(sched, row.data()), "tile layout differs");
}

TEST_F(CodecDeathFixture, RejectsFactorThatIsNotADivisor) {
  // GEMM 256x128x64: every extent is a power of two.
  Schedule odd = sched;
  odd.stages[0].tiles[0].factors[0] = 3;
  EXPECT_DEATH(codec.encode(odd, row.data()), "tile factor is not a divisor of its extent");
  odd.stages[0].tiles[0].factors[0] = 512;
  EXPECT_DEATH(codec.encode(odd, row.data()), "tile factor is not a divisor of its extent");
  sched.stages[0].tiles[0].factors[0] = std::int64_t{INT32_MAX} + 1;
  EXPECT_DEATH(codec.encode(sched, row.data()), "tile factor is not a divisor of its extent");
}

TEST_F(CodecDeathFixture, RejectsKnobPastSixteenBits) {
  sched.stages[0].unroll_index = 65536;
  EXPECT_DEATH(codec.encode(sched, row.data()), "knob outside uint16");
  sched.stages[0].unroll_index = 0;
  sched.stages[0].compute_at = -1;
  EXPECT_DEATH(codec.encode(sched, row.data()), "knob outside uint16");
}

TEST_F(CodecDeathFixture, RejectsDivisorIndexBeyondTheList) {
  // Row value 0 is stage 0's outermost factor of axis 0.
  const std::int64_t extent = sched.stages[0].tiles[0].product();
  const std::size_t count = divisors(extent).size();
  codec.encode(sched, row.data());
  row[0] = static_cast<std::uint16_t>(count);
  EXPECT_DEATH(codec.decode(row.data()), "divisor index beyond its extent's divisors");
  row[0] = static_cast<std::uint16_t>(count - 1);
  EXPECT_EQ(codec.decode(row.data()).stages[0].tiles[0].factors[0], extent);
}

TEST_F(CodecDeathFixture, AgentRejectsWrongWidthRow) {
  RlStateCodec* c = &codec;
  auto sizes = space.head_sizes();
  PpoAgent agent(
      rl_observation_dim(space), codec.width(),
      [c](const std::uint16_t* state, double* obs) { c->observe(state, obs); },
      std::vector<int>(sizes.begin(), sizes.end()), PpoConfig{}, 1);
  PpoAgent::ActResult act;
  act.actions = {0, 0, 0, 0};
  codec.encode(sched, row.data());
  row.push_back(0);
  EXPECT_DEATH(agent.store(row, act, 0, 0, {}), "state width differs from state_width");
}

}  // namespace
}  // namespace harl
