#include <gtest/gtest.h>

#include <algorithm>
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

constexpr std::uint8_t kSentinel = 0xa5;

/// ceil(log2 n): the bits of a field that takes `n` values.
int bits_for(std::uint64_t n) {
  int bits = 0;
  while ((std::uint64_t{1} << bits) < n) ++bits;
  return bits;
}

/// The row's field widths in order, derived from the sketch alone: per
/// stage, every tile factor (its axis extent's divisor count), then
/// compute_at, parallel_depth and unroll_index over their legal ranges.
std::vector<int> expected_field_bits(const ActionSpace& space) {
  const Sketch& sk = space.sketch();
  std::vector<int> bits;
  for (int s = 0; s < sk.graph->num_stages(); ++s) {
    const StagePlan& plan = sk.plan(s);
    const TensorOp& op = sk.graph->stage(s).op;
    const bool tiled = plan.structure == StageStructure::kTiled ||
                       plan.structure == StageStructure::kSimple;
    if (tiled) {
      for (const Axis& axis : op.axes) {
        const int field = bits_for(divisors(axis.extent).size());
        for (int l = 0; l < levels_for_axis(plan.structure, axis.kind); ++l) {
          bits.push_back(field);
        }
      }
    }
    bits.push_back(plan.has_compute_at_knob ? bits_for(kComputeAtCandidates) : 0);
    bits.push_back(tiled ? bits_for(static_cast<std::uint64_t>(op.num_spatial_axes()) + 1) : 0);
    bits.push_back(tiled ? bits_for(static_cast<std::uint64_t>(space.num_unroll_options())) : 0);
  }
  return bits;
}

/// Row bytes the layout needs: the fields' bits rounded up, at least one.
int expected_bytes(const ActionSpace& space) {
  int bits = 0;
  for (int b : expected_field_bits(space)) bits += b;
  return std::max(1, (bits + 7) / 8);
}

/// Encodes `s` over stale bytes, then checks the row's three promises: it
/// fills exactly bytes() bytes, decodes to a valid schedule with the same
/// fingerprint, and observes to the bytes rl_observation computes from `s`
/// itself.
void expect_round_trip(RlStateCodec& codec, const FeatureExtractor& fx,
                       const ActionSpace& space, const Schedule& s) {
  const auto bytes = static_cast<std::size_t>(codec.bytes());
  std::vector<std::uint8_t> row(bytes + 1, kSentinel);
  codec.encode(s, row.data());
  ASSERT_EQ(row[bytes], kSentinel) << "encode wrote past bytes()";

  Schedule back = codec.decode(row.data());
  ASSERT_EQ(back.fingerprint(), s.fingerprint());
  ASSERT_EQ(validate_schedule(back, space.num_unroll_options()), "");

  std::vector<double> want = rl_observation(fx, space, s);
  std::vector<double> got(want.size() + 1, -1.0);
  codec.observe(row.data(), got.data());
  ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)), 0);
  ASSERT_EQ(got.back(), -1.0) << "observe wrote past rl_observation_dim()";
}

/// Every field at the top of its range, one tile factor at a time: each
/// knob at its largest legal value, and each (stage, axis, level) holding
/// the whole extent, which is the last index of its divisor list.
void expect_extremes_round_trip(RlStateCodec& codec, const FeatureExtractor& fx,
                                const ActionSpace& space, Rng& rng) {
  const Sketch& sk = space.sketch();
  Schedule top = random_schedule(sk, space.num_unroll_options(), rng);
  for (int s = 0; s < sk.graph->num_stages(); ++s) {
    StageSchedule& ss = top.stage(s);
    if (sk.plan(s).has_compute_at_knob) ss.compute_at = kComputeAtCandidates - 1;
    if (!ss.tiles.empty()) {
      ss.parallel_depth = sk.graph->stage(s).op.num_spatial_axes();
      ss.unroll_index = space.num_unroll_options() - 1;
    }
  }
  expect_round_trip(codec, fx, space, top);
  for (int s = 0; s < sk.graph->num_stages(); ++s) {
    for (std::size_t a = 0; a < top.stage(s).tiles.size(); ++a) {
      const std::int64_t extent = top.stage(s).tiles[a].product();
      for (std::size_t l = 0; l < top.stage(s).tiles[a].factors.size(); ++l) {
        Schedule x = top;
        std::vector<std::int64_t>& f = x.stage(s).tiles[a].factors;
        std::fill(f.begin(), f.end(), 1);
        f[l] = extent;
        expect_round_trip(codec, fx, space, x);
      }
    }
  }
}

/// Every sketch of `g`: the row is exactly as wide as the independent
/// layout model says, and extreme schedules, random schedules and seeded
/// random walks of legal joint actions round-trip through it.
void expect_sketches_round_trip(const Subgraph& g, const HardwareConfig& hw,
                                const FeatureExtractor& fx) {
  std::vector<Sketch> sketches = generate_sketches(g);
  for (const Sketch& sk : sketches) {
    SCOPED_TRACE(g.name() + "/" + sk.tag);
    ActionSpace space(sk, hw.num_unroll_options());
    RlStateCodec codec(fx, space);
    ASSERT_EQ(codec.bytes(), expected_bytes(space));
    Rng rng(static_cast<std::uint64_t>(sk.identity_salt));
    expect_extremes_round_trip(codec, fx, space, rng);
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

/// Fields wider than a byte, one of which straddles bit 64: a GEMM whose
/// spatial extents have 288 divisors (1441440 = 2^5 * 3^2 * 5 * 7 * 11 *
/// 13, nine bits per factor) and whose reduction extent has 240 (720720,
/// eight bits).  Sketch 0's eight spatial factors fill bits 0-71, so the
/// last one spans bits 63-71.
TEST(RlStateCodec, RoundTripsFieldsAcrossByteAndWordBoundaries) {
  const HardwareConfig hw = HardwareConfig::xeon_6226r();
  const FeatureExtractor fx(&hw);
  ASSERT_EQ(divisors(1441440).size(), 288u);
  ASSERT_EQ(divisors(720720).size(), 240u);
  const Subgraph g = make_single_op_subgraph(make_gemm_op(1441440, 720720, 1441440));
  std::vector<Sketch> sketches = generate_sketches(g);
  ActionSpace space(sketches[0], hw.num_unroll_options());
  const std::vector<int> bits = expected_field_bits(space);
  bool straddles_64 = false;
  int at = 0;
  for (int b : bits) {
    straddles_64 = straddles_64 || (at < 64 && at + b > 64);
    at += b;
  }
  ASSERT_TRUE(straddles_64);
  ASSERT_EQ(bits[7], 9);
  expect_sketches_round_trip(g, hw, fx);
}

/// One tiled GEMM stage: 3 axes (two spatial at 4 levels, one reduction at
/// 2), each factor as wide as its extent's divisor list needs, plus the
/// three knobs.
TEST(RlStateCodec, BytesCoverEveryDecisionAtItsWidth) {
  const HardwareConfig hw = HardwareConfig::xeon_6226r();
  const FeatureExtractor fx(&hw);
  Subgraph g = make_gemm(256, 128, 64);  // i: 9 divisors, j: 7, k: 8
  std::vector<Sketch> sketches = generate_sketches(g);
  ActionSpace space(sketches[0], hw.num_unroll_options());
  RlStateCodec codec(fx, space);
  ASSERT_EQ(sketches[0].primary_compute_at_stage, -1);
  const int knob_bits = bits_for(3) + bits_for(static_cast<std::uint64_t>(hw.num_unroll_options()));
  const int bits = 4 * kSpatialTileLevels + 3 * kSpatialTileLevels + 3 * kReductionTileLevels +
                   knob_bits;
  EXPECT_EQ(codec.bytes(), (bits + 7) / 8);
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
        row(static_cast<std::size_t>(codec.bytes())) {}

  HardwareConfig hw;
  FeatureExtractor fx;
  Subgraph graph;
  std::vector<Sketch> sketches;
  ActionSpace space;
  RlStateCodec codec;
  Rng rng;
  Schedule sched;
  std::vector<std::uint8_t> row;
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

TEST_F(CodecDeathFixture, RejectsKnobOutsideItsRange) {
  // The GEMM's one stage: 2 spatial axes, no compute-at knob on sketch 0.
  Schedule bad = sched;
  bad.stages[0].unroll_index = hw.num_unroll_options();
  EXPECT_DEATH(codec.encode(bad, row.data()), "knob outside its legal range");
  bad = sched;
  bad.stages[0].parallel_depth = 3;
  EXPECT_DEATH(codec.encode(bad, row.data()), "knob outside its legal range");
  bad.stages[0].parallel_depth = -1;
  EXPECT_DEATH(codec.encode(bad, row.data()), "knob outside its legal range");
  bad = sched;
  bad.stages[0].compute_at = 1;  // a stage without the knob holds 0
  EXPECT_DEATH(codec.encode(bad, row.data()), "knob outside its legal range");
  bad.stages[0].compute_at = 65536;
  EXPECT_DEATH(codec.encode(bad, row.data()), "knob outside its legal range");
}

TEST_F(CodecDeathFixture, RejectsDivisorIndexBeyondTheList) {
  // Bits 0-3 are stage 0's outermost factor of axis 0 (extent 256: 9
  // divisors, so indices 9-15 fit the field but name no divisor).
  const std::int64_t extent = sched.stages[0].tiles[0].product();
  const std::size_t count = divisors(extent).size();
  ASSERT_EQ(count, 9u);
  codec.encode(sched, row.data());
  row[0] = static_cast<std::uint8_t>((row[0] & 0xf0) | count);
  EXPECT_DEATH(codec.decode(row.data()), "a field's index is beyond its range");
  row[0] = static_cast<std::uint8_t>((row[0] & 0xf0) | (count - 1));
  EXPECT_EQ(codec.decode(row.data()).stages[0].tiles[0].factors[0], extent);
}

TEST_F(CodecDeathFixture, AgentRejectsWrongSizeRow) {
  RlStateCodec* c = &codec;
  auto sizes = space.head_sizes();
  PpoAgent agent(
      rl_observation_dim(space), codec.bytes(),
      [c](const std::uint8_t* state, double* obs) { c->observe(state, obs); },
      std::vector<int>(sizes.begin(), sizes.end()), PpoConfig{}, 1);
  PpoAgent::ActResult act;
  act.actions = {0, 0, 0, 0};
  codec.encode(sched, row.data());
  row.push_back(0);
  EXPECT_DEATH(agent.store(row, act, 0, 0, {}), "state size differs from state_bytes");
}

}  // namespace
}  // namespace harl
