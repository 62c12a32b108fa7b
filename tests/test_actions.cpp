#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sched/actions.hpp"
#include "workloads/networks.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

constexpr int kUnrollOptions = 4;

struct GemmFixture : ::testing::Test {
  GemmFixture()
      : graph(make_gemm(64, 32, 16)),
        sketches(generate_sketches(graph)),
        space(sketches[0], kUnrollOptions),
        rng(1) {}

  Subgraph graph;
  std::vector<Sketch> sketches;
  ActionSpace space;
  Rng rng;
};

TEST_F(GemmFixture, SlotLayoutMatchesPaperExample) {
  // GEMM: 2 spatial axes x 4 levels + 1 reduction axis x 2 levels = 10 slots;
  // the tiling head has num_iters^2 + 1 = 101 actions (Section 4.2 / A.1).
  EXPECT_EQ(space.num_slots(), 10);
  EXPECT_EQ(space.num_tile_actions(), 101);
  auto sizes = space.head_sizes();
  EXPECT_EQ(sizes[kHeadTile], 101);
  EXPECT_EQ(sizes[kHeadComputeAt], 3);
  EXPECT_EQ(sizes[kHeadParallel], 3);
  EXPECT_EQ(sizes[kHeadUnroll], 3);
}

TEST_F(GemmFixture, DecodeTileAction) {
  int from = -1, to = -1;
  EXPECT_TRUE(space.decode_tile_action(0, &from, &to));
  EXPECT_EQ(from, 0);
  EXPECT_EQ(to, 0);
  EXPECT_TRUE(space.decode_tile_action(57, &from, &to));
  EXPECT_EQ(from, 5);
  EXPECT_EQ(to, 7);
  EXPECT_FALSE(space.decode_tile_action(space.dummy_tile_action(), &from, &to));
  EXPECT_FALSE(space.decode_tile_action(-1, &from, &to));
}

TEST_F(GemmFixture, MaskAllowsOnlySameAxisMovesWithMovableFactor) {
  Schedule s = random_schedule(sketches[0], kUnrollOptions, rng);
  // Put everything in the innermost slot of axis 0 so only moves out of that
  // slot are possible for axis 0.
  s.stages[0].tiles[0] = trivial_tile(64, kSpatialTileLevels);
  std::vector<bool> mask;
  space.tile_action_mask(s, &mask);
  EXPECT_TRUE(mask[static_cast<std::size_t>(space.dummy_tile_action())]);
  int n = space.num_slots();
  // Slot 3 is axis-0 innermost (levels 0..3); slots 0..2 are axis-0 outer.
  EXPECT_TRUE(mask[static_cast<std::size_t>(3 * n + 0)]);   // inner -> outer ok
  EXPECT_FALSE(mask[static_cast<std::size_t>(0 * n + 3)]);  // outer slot holds 1
  EXPECT_FALSE(mask[static_cast<std::size_t>(3 * n + 4)]);  // cross-axis
  EXPECT_FALSE(mask[static_cast<std::size_t>(3 * n + 3)]);  // self move
}

TEST_F(GemmFixture, ApplyTileMovePreservesProducts) {
  Schedule s = random_schedule(sketches[0], kUnrollOptions, rng);
  std::vector<bool> mask;
  space.tile_action_mask(s, &mask);
  int valid = -1;
  for (int a = 0; a < space.num_tile_actions() - 1; ++a) {
    if (mask[static_cast<std::size_t>(a)]) {
      valid = a;
      break;
    }
  }
  ASSERT_GE(valid, 0);
  JointAction ja{valid, 1, 1, 1};  // deltas 0 on the other heads
  EXPECT_TRUE(space.apply(&s, ja));
  EXPECT_EQ(validate_schedule(s, kUnrollOptions), "");
}

TEST_F(GemmFixture, DummyJointActionIsNoop) {
  Schedule s = random_schedule(sketches[0], kUnrollOptions, rng);
  Schedule before = s;
  JointAction ja{space.dummy_tile_action(), 1, 1, 1};
  EXPECT_FALSE(space.apply(&s, ja));
  EXPECT_EQ(s.fingerprint(), before.fingerprint());
}

TEST_F(GemmFixture, DeltaClampingAtBounds) {
  Schedule s = random_schedule(sketches[0], kUnrollOptions, rng);
  s.stages[0].unroll_index = 0;
  JointAction down{space.dummy_tile_action(), 1, 1, 0};  // unroll -1
  EXPECT_FALSE(space.apply(&s, down));
  EXPECT_EQ(s.stages[0].unroll_index, 0);
  JointAction up{space.dummy_tile_action(), 1, 1, 2};  // unroll +1
  EXPECT_TRUE(space.apply(&s, up));
  EXPECT_EQ(s.stages[0].unroll_index, 1);
}

TEST_F(GemmFixture, ParallelDeltaRange) {
  Schedule s = random_schedule(sketches[0], kUnrollOptions, rng);
  s.stages[0].parallel_depth = 0;
  JointAction down{space.dummy_tile_action(), 1, 0, 1};
  EXPECT_FALSE(space.apply(&s, down));
  for (int i = 0; i < 10; ++i) {
    JointAction up{space.dummy_tile_action(), 1, 2, 1};
    space.apply(&s, up);
  }
  EXPECT_EQ(s.stages[0].parallel_depth, graph.stage(0).op.num_spatial_axes());
}

TEST(ActionsComputeAt, KnobMovesOnCacheWriteSketch) {
  Subgraph g = make_gemm(64, 64, 64);
  auto sketches = generate_sketches(g);
  const Sketch& cw = sketches[1];  // T+CW exposes the compute-at knob
  ActionSpace space(cw, kUnrollOptions);
  Rng rng(3);
  Schedule s = random_schedule(cw, kUnrollOptions, rng);
  s.stages[0].compute_at = 0;
  JointAction up{space.dummy_tile_action(), 2, 1, 1};
  EXPECT_TRUE(space.apply(&s, up));
  EXPECT_EQ(s.stages[0].compute_at, 1);
  JointAction down{space.dummy_tile_action(), 0, 1, 1};
  EXPECT_TRUE(space.apply(&s, down));
  EXPECT_EQ(s.stages[0].compute_at, 0);
  EXPECT_FALSE(space.apply(&s, down));  // clamped at 0
}

TEST(ActionsComputeAt, NoKnobMeansNoop) {
  Subgraph g = make_gemm(64, 64, 64);
  auto sketches = generate_sketches(g);
  ActionSpace space(sketches[0], kUnrollOptions);  // plain T: no knob
  Rng rng(4);
  Schedule s = random_schedule(sketches[0], kUnrollOptions, rng);
  JointAction up{space.dummy_tile_action(), 2, 1, 1};
  EXPECT_FALSE(space.apply(&s, up));
}

TEST(ActionsMutate, ProducesValidDistinctSchedules) {
  Subgraph g = make_conv2d(1, 14, 14, 64, 64, 3, 1, 1);
  auto sketches = generate_sketches(g);
  ActionSpace space(sketches[0], kUnrollOptions);
  Rng rng(5);
  Schedule s = random_schedule(sketches[0], kUnrollOptions, rng);
  int changed = 0;
  for (int i = 0; i < 50; ++i) {
    Schedule before = s;
    if (space.mutate(&s, rng)) {
      ++changed;
      EXPECT_NE(s.fingerprint(), before.fingerprint());
    }
    ASSERT_EQ(validate_schedule(s, kUnrollOptions), "");
  }
  EXPECT_GT(changed, 40);  // mutation nearly always finds a move
}

TEST(ActionsCrossover, ChildIsValidMixture) {
  Subgraph g = make_softmax(128, 64);
  auto sketches = generate_sketches(g);
  ActionSpace space(sketches[0], kUnrollOptions);
  Rng rng(6);
  Schedule a = random_schedule(sketches[0], kUnrollOptions, rng);
  Schedule b = random_schedule(sketches[0], kUnrollOptions, rng);
  for (int i = 0; i < 20; ++i) {
    Schedule child = space.crossover(a, b, rng);
    ASSERT_EQ(validate_schedule(child, kUnrollOptions), "");
    for (std::size_t st = 0; st < child.stages.size(); ++st) {
      bool from_a = child.stages[st].tiles.size() == a.stages[st].tiles.size();
      EXPECT_TRUE(from_a);  // same sketch -> same structure either way
    }
  }
}

TEST(ActionsElementwise, TileHeadDegeneratesGracefully) {
  Subgraph g = make_elementwise(1 << 12, 1.0);
  auto sketches = generate_sketches(g);
  ActionSpace space(sketches[0], kUnrollOptions);
  // One axis x 2 levels = 2 slots -> 5 tile actions.
  EXPECT_EQ(space.num_slots(), 2);
  EXPECT_EQ(space.num_tile_actions(), 5);
  Rng rng(7);
  Schedule s = random_schedule(sketches[0], kUnrollOptions, rng);
  std::vector<bool> mask;
  space.tile_action_mask(s, &mask);
  EXPECT_TRUE(mask[static_cast<std::size_t>(space.dummy_tile_action())]);
}

/// The premise of the PPO actor's compact tiling head: no schedule's mask
/// sets a tile action outside the space's support.  Checked on random
/// schedules, and on random walks from them, of every sketch of bert,
/// resnet50, mobilenet_v2 and a GEMM.
TEST(ActionSupport, HoldsEveryLegalTileMoveOfEverySketch) {
  std::vector<Subgraph> graphs;
  for (const char* name : {"bert", "resnet50", "mobilenet_v2"}) {
    for (Subgraph& g : make_network(name).subgraphs) graphs.push_back(std::move(g));
  }
  graphs.push_back(make_gemm(64, 32, 16));
  Rng rng(11);
  std::vector<bool> mask;
  int spaces = 0;
  for (const Subgraph& g : graphs) {
    std::vector<Sketch> sketches = generate_sketches(g);
    for (std::size_t k = 0; k < sketches.size(); ++k) {
      SCOPED_TRACE(g.name() + " sketch " + std::to_string(k));
      ActionSpace space(sketches[k], kUnrollOptions);
      const std::vector<int> support = space.tile_action_support();
      ASSERT_FALSE(support.empty());
      EXPECT_EQ(support.back(), space.dummy_tile_action());
      EXPECT_TRUE(std::adjacent_find(support.begin(), support.end(),
                                     [](int a, int b) { return a >= b; }) == support.end())
          << "support is not strictly ascending";
      std::vector<bool> in_support(static_cast<std::size_t>(space.num_tile_actions()), false);
      for (int a : support) in_support[static_cast<std::size_t>(a)] = true;
      for (int start = 0; start < 4; ++start) {
        Schedule s = random_schedule(sketches[k], kUnrollOptions, rng);
        for (int step = 0; step < 8; ++step) {
          space.tile_action_mask(s, &mask);
          ASSERT_EQ(mask.size(), in_support.size());
          for (std::size_t a = 0; a < mask.size(); ++a) {
            ASSERT_TRUE(!mask[a] || in_support[a]) << "mask sets action " << a;
          }
          space.mutate(&s, rng);
        }
      }
      ++spaces;
    }
  }
  EXPECT_GT(spaces, 50);
}

TEST_F(GemmFixture, SupportIsTheSameAxisPairsAndTheDummy) {
  // GEMM: two spatial axes of 4 slots, one reduction axis of 2: 12 + 12 + 2
  // ordered pairs of distinct same-axis slots, plus the dummy.
  const std::vector<int> support = space.tile_action_support();
  ASSERT_EQ(support.size(), 27u);
  const int n = space.num_slots();
  for (std::size_t j = 0; j + 1 < support.size(); ++j) {
    int from = -1, to = -1;
    ASSERT_TRUE(space.decode_tile_action(support[j], &from, &to));
    EXPECT_NE(from, to);
    EXPECT_EQ(space.slots()[static_cast<std::size_t>(from)].axis,
              space.slots()[static_cast<std::size_t>(to)].axis);
    EXPECT_EQ(support[j], from * n + to);
  }
}

}  // namespace
}  // namespace harl
