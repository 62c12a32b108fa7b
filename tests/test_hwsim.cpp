#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

#include "hwsim/measurer.hpp"
#include "hwsim/simulator.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

TEST(HardwareConfig, PresetsValidate) {
  EXPECT_EQ(HardwareConfig::xeon_6226r().validate(), "");
  EXPECT_EQ(HardwareConfig::rtx3090().validate(), "");
  EXPECT_EQ(HardwareConfig::test_config().validate(), "");
}

TEST(HardwareConfig, PresetTableKeepsEveryAcceptedName) {
  // Every spelling the daemon, harl_query and harl_harvest accepted, with
  // the shard name and fingerprint it resolved to before the tables merged
  // (the fingerprints are pinned: they partition every record log).
  struct Case {
    const char* name;
    const char* canonical;
    std::uint64_t fingerprint;
  };
  const Case cases[] = {
      {"xeon", "xeon", 0xf23674f5dc72bc3dULL},
      {"xeon_6226r", "xeon", 0xf23674f5dc72bc3dULL},
      {"rtx3090", "rtx3090", 0x9f1eb63442a5e8a1ULL},
      {"gpu", "rtx3090", 0x9f1eb63442a5e8a1ULL},
      {"test", "test", 0x0589ec08610c2c48ULL},
  };
  for (const Case& c : cases) {
    std::string canonical;
    std::optional<HardwareConfig> hw = HardwareConfig::preset(c.name, &canonical);
    ASSERT_TRUE(hw.has_value()) << c.name;
    EXPECT_EQ(canonical, c.canonical) << c.name;
    EXPECT_EQ(hw->fingerprint(), c.fingerprint) << c.name;
    EXPECT_TRUE(HardwareConfig::preset(c.name).has_value()) << c.name;
  }
  EXPECT_EQ(HardwareConfig::xeon_6226r().fingerprint(), 0xf23674f5dc72bc3dULL);

  // "cpu" and every other unlisted name are rejected,
  // and a rejected name leaves the canonical out-parameter alone.
  for (const char* name : {"cpu", "", "Xeon", "XEON", "gpu ", "quantum", "tes"}) {
    std::string canonical = "untouched";
    EXPECT_FALSE(HardwareConfig::preset(name, &canonical).has_value()) << name;
    EXPECT_EQ(canonical, "untouched") << name;
  }
}

TEST(HardwareConfig, ValidateCatchesBrokenHierarchy) {
  HardwareConfig hw = HardwareConfig::test_config();
  hw.levels.back().capacity_bytes = 64;  // backing store must be infinite
  EXPECT_NE(hw.validate(), "");
  hw = HardwareConfig::test_config();
  hw.unroll_depths = {4, 16};  // must start at 0
  EXPECT_NE(hw.validate(), "");
  hw = HardwareConfig::test_config();
  hw.levels.clear();
  EXPECT_NE(hw.validate(), "");
}

TEST(HardwareConfig, CoreFlops) {
  HardwareConfig hw = HardwareConfig::test_config();
  // 1 GHz x 4 lanes x 2 flops = 8 Gflop/s.
  EXPECT_DOUBLE_EQ(hw.core_flops(), 8e9);
}

struct SimFixture : ::testing::Test {
  SimFixture()
      : hw(HardwareConfig::xeon_6226r()),
        sim([this] {
          hw.noise_sigma = 0;  // deterministic for white-box assertions
          return CostSimulator(hw);
        }()),
        graph(make_gemm(256, 256, 256)),
        sketches(generate_sketches(graph)),
        rng(42) {}

  Schedule schedule_with(std::vector<std::int64_t> i_tiles,
                         std::vector<std::int64_t> j_tiles,
                         std::vector<std::int64_t> k_tiles, int parallel_depth,
                         int unroll_index, int sketch_id = 0) {
    Schedule s = random_schedule(sketches[static_cast<std::size_t>(sketch_id)],
                                 hw.num_unroll_options(), rng);
    s.stages[0].tiles[0].factors = std::move(i_tiles);
    s.stages[0].tiles[1].factors = std::move(j_tiles);
    s.stages[0].tiles[2].factors = std::move(k_tiles);
    s.stages[0].parallel_depth = parallel_depth;
    s.stages[0].unroll_index = unroll_index;
    return s;
  }

  HardwareConfig hw;
  CostSimulator sim;
  Subgraph graph;
  std::vector<Sketch> sketches;
  Rng rng;
};

TEST_F(SimFixture, DeterministicAcrossCalls) {
  Schedule s = random_schedule(sketches[0], hw.num_unroll_options(), rng);
  EXPECT_DOUBLE_EQ(sim.simulate_ms(s), sim.simulate_ms(s));
}

TEST_F(SimFixture, PositiveAndFinite) {
  for (int i = 0; i < 100; ++i) {
    Schedule s = random_schedule(sketches[static_cast<std::size_t>(i % 3)],
                                 hw.num_unroll_options(), rng);
    double ms = sim.simulate_ms(s);
    ASSERT_GT(ms, 0);
    ASSERT_TRUE(std::isfinite(ms));
  }
}

TEST_F(SimFixture, ParallelismHelpsComputeBoundKernel) {
  // Same blocked tiling; serial vs 32-way parallel over the outer i tiles.
  Schedule serial = schedule_with({32, 1, 2, 4}, {1, 8, 4, 8}, {16, 16}, 0, 1);
  Schedule parallel = schedule_with({32, 1, 2, 4}, {1, 8, 4, 8}, {16, 16}, 2, 1);
  EXPECT_LT(sim.simulate_ms(parallel), sim.simulate_ms(serial) / 4);
}

TEST_F(SimFixture, CacheBlockedTilingBeatsPathological) {
  // Cache-friendly blocks vs an untiled streaming nest with a vector-hostile
  // innermost extent of 1 on j.
  Schedule good = schedule_with({8, 1, 4, 8}, {2, 2, 4, 16}, {16, 16}, 2, 1);
  Schedule bad = schedule_with({1, 1, 1, 256}, {256, 1, 1, 1}, {1, 256}, 1, 0);
  EXPECT_LT(sim.simulate_ms(good) * 4, sim.simulate_ms(bad));
}

TEST_F(SimFixture, VectorWidthMattersForInnermostExtent) {
  // Innermost j extent 16 (full AVX-512 lanes) vs 2 (1/8 utilization).
  Schedule wide = schedule_with({8, 1, 4, 8}, {2, 2, 4, 16}, {16, 16}, 2, 1);
  Schedule narrow = schedule_with({8, 1, 4, 8}, {2, 2, 32, 2}, {16, 16}, 2, 1);
  EXPECT_LT(sim.simulate_ms(wide), sim.simulate_ms(narrow));
}

TEST_F(SimFixture, UnrollSweetSpotExists) {
  // unroll 0 pays loop overhead; the deepest unroll pays i-cache penalty.
  auto at_unroll = [&](int idx) {
    Schedule s = schedule_with({8, 1, 4, 8}, {2, 2, 4, 16}, {16, 16}, 2, idx);
    return sim.simulate_ms(s);
  };
  double none = at_unroll(0);
  double mid = at_unroll(1);   // depth 16
  double deep = at_unroll(3);  // depth 512 > icache_unroll_limit 128
  EXPECT_LT(mid, none);
  EXPECT_LT(mid, deep);
}

TEST_F(SimFixture, BreakdownSumsToTotal) {
  Schedule s = random_schedule(sketches[0], hw.num_unroll_options(), rng);
  std::vector<StageCostBreakdown> parts;
  double total = sim.simulate_ms(s, &parts);
  ASSERT_FALSE(parts.empty());
  double sum = 0;
  for (const auto& p : parts) {
    sum += p.total_ms;
    EXPECT_GE(p.compute_ms, 0);
    EXPECT_GE(p.memory_ms, 0);
    EXPECT_GE(p.overhead_ms, 0);
    EXPECT_NEAR(p.total_ms,
                std::max(p.compute_ms, p.memory_ms) + p.overhead_ms + p.transfer_ms,
                1e-9);
  }
  EXPECT_NEAR(total, sum, 1e-9);
}

TEST_F(SimFixture, RfactorHelpsReductionHeavySmallSpatial) {
  // 16x16 output with a 65536-long reduction: spatial parallelism is capped
  // at 256 iterations; rfactor unlocks the reduction dimension.
  Subgraph g = make_gemm(16, 65536, 16);
  auto sks = generate_sketches(g);
  ASSERT_EQ(sks.size(), 3u);
  Rng local(3);
  double best_plain = 1e300, best_rf = 1e300;
  for (int i = 0; i < 300; ++i) {
    Schedule sp = random_schedule(sks[0], hw.num_unroll_options(), local);
    best_plain = std::min(best_plain, sim.simulate_ms(sp));
    Schedule sr = random_schedule(sks[2], hw.num_unroll_options(), local);
    best_rf = std::min(best_rf, sim.simulate_ms(sr));
  }
  EXPECT_LT(best_rf, best_plain);
}

TEST_F(SimFixture, FusionCheaperThanSeparateElementwisePass) {
  // GEMM+tanh (fused sketch) should beat GEMM plus a separately simulated
  // elementwise pass of the same size, because the intermediate stays in
  // cache.
  Subgraph fused_g = make_gemm_act(512, 512, 512);
  auto fused_sks = generate_sketches(fused_g);
  Rng local(4);
  double best_fused = 1e300;
  for (int i = 0; i < 200; ++i) {
    Schedule s = random_schedule(fused_sks[0], hw.num_unroll_options(), local);
    best_fused = std::min(best_fused, sim.simulate_ms(s));
  }
  Subgraph gemm_g = make_gemm(512, 512, 512);
  Subgraph ew_g = make_elementwise(512 * 512, 4.0);
  auto gemm_sks = generate_sketches(gemm_g);
  auto ew_sks = generate_sketches(ew_g);
  double best_split = 1e300;
  for (int i = 0; i < 200; ++i) {
    Schedule a = random_schedule(gemm_sks[0], hw.num_unroll_options(), local);
    Schedule b = random_schedule(ew_sks[0], hw.num_unroll_options(), local);
    best_split = std::min(best_split, sim.simulate_ms(a) + sim.simulate_ms(b));
  }
  EXPECT_LT(best_fused, best_split);
}

TEST_F(SimFixture, GpuConfigFasterOnBigGemm) {
  HardwareConfig gpu = HardwareConfig::rtx3090();
  gpu.noise_sigma = 0;
  CostSimulator gpu_sim(gpu);
  Subgraph g = make_gemm(1024, 1024, 1024);
  auto sks = generate_sketches(g);
  Rng local(5);
  double best_cpu = 1e300, best_gpu = 1e300;
  for (int i = 0; i < 400; ++i) {
    Schedule s = random_schedule(sks[0], hw.num_unroll_options(), local);
    best_cpu = std::min(best_cpu, sim.simulate_ms(s));
    Schedule sg = random_schedule(sks[0], gpu.num_unroll_options(), local);
    best_gpu = std::min(best_gpu, gpu_sim.simulate_ms(sg));
  }
  EXPECT_LT(best_gpu, best_cpu);
}

TEST(Measurer, CountsTrials) {
  HardwareConfig hw = HardwareConfig::test_config();
  CostSimulator sim(hw);
  Measurer m(&sim, 1);
  Subgraph g = make_gemm(32, 32, 32);
  auto sks = generate_sketches(g);
  Rng rng(1);
  Schedule s = random_schedule(sks[0], hw.num_unroll_options(), rng);
  EXPECT_EQ(m.trials_used(), 0);
  m.measure_ms(s);
  EXPECT_EQ(m.trials_used(), 1);
  m.measure_batch({s, s, s});
  EXPECT_EQ(m.trials_used(), 4);
  m.reset_trials();
  EXPECT_EQ(m.trials_used(), 0);
}

TEST(Measurer, NoiseIsDeterministicPerTrialIndex) {
  HardwareConfig hw = HardwareConfig::test_config();
  hw.noise_sigma = 0.05;
  CostSimulator sim(hw);
  Subgraph g = make_gemm(32, 32, 32);
  auto sks = generate_sketches(g);
  Rng rng(2);
  Schedule s = random_schedule(sks[0], hw.num_unroll_options(), rng);

  Measurer m1(&sim, 99), m2(&sim, 99);
  std::vector<double> a = m1.measure_batch({s, s, s, s});
  std::vector<double> b = m2.measure_batch({s, s, s, s});
  EXPECT_EQ(a, b);                 // same seed, same trial indices
  EXPECT_NE(a[0], a[1]);           // different trial indices differ
  Measurer m3(&sim, 100);
  std::vector<double> c = m3.measure_batch({s, s, s, s});
  EXPECT_NE(a[0], c[0]);           // different seeds differ
}

TEST(Measurer, ZeroSigmaMatchesSimulator) {
  HardwareConfig hw = HardwareConfig::test_config();
  CostSimulator sim(hw);
  Measurer m(&sim, 1);
  Subgraph g = make_gemm(32, 32, 32);
  auto sks = generate_sketches(g);
  Rng rng(3);
  Schedule s = random_schedule(sks[0], hw.num_unroll_options(), rng);
  EXPECT_DOUBLE_EQ(m.measure_ms(s), sim.simulate_ms(s));
}

}  // namespace
}  // namespace harl
