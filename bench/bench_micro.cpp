/// google-benchmark micro-benchmarks for the substrate components: the
/// per-call costs that determine end-to-end tuning throughput (how much
/// search the auto-scheduler performs per measurement trial).

#include <benchmark/benchmark.h>

#include "core/harl.hpp"

namespace harl {
namespace {

const HardwareConfig& hw() {
  static HardwareConfig h = [] {
    HardwareConfig c = HardwareConfig::xeon_6226r();
    c.noise_sigma = 0;
    return c;
  }();
  return h;
}

void BM_SketchGeneration(benchmark::State& state) {
  Subgraph g = make_gemm_act(1024, 1024, 1024);
  for (auto _ : state) {
    auto sketches = generate_sketches(g);
    benchmark::DoNotOptimize(sketches);
  }
}
BENCHMARK(BM_SketchGeneration);

void BM_RandomSchedule(benchmark::State& state) {
  Subgraph g = make_gemm(1024, 1024, 1024);
  auto sketches = generate_sketches(g);
  Rng rng(1);
  for (auto _ : state) {
    Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_RandomSchedule);

void BM_SimulateGemm(benchmark::State& state) {
  CostSimulator sim(hw());
  Subgraph g = make_gemm(1024, 1024, 1024);
  auto sketches = generate_sketches(g);
  Rng rng(2);
  Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
  for (auto _ : state) benchmark::DoNotOptimize(sim.simulate_ms(s));
}
BENCHMARK(BM_SimulateGemm);

void BM_SimulateConv2dFused(benchmark::State& state) {
  CostSimulator sim(hw());
  Subgraph g = make_conv2d_relu(1, 14, 14, 256, 256, 3, 1, 1);
  auto sketches = generate_sketches(g);
  Rng rng(3);
  Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
  for (auto _ : state) benchmark::DoNotOptimize(sim.simulate_ms(s));
}
BENCHMARK(BM_SimulateConv2dFused);

void BM_FeatureExtraction(benchmark::State& state) {
  FeatureExtractor fx(&hw());
  Subgraph g = make_gemm(1024, 1024, 1024);
  auto sketches = generate_sketches(g);
  Rng rng(4);
  Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
  for (auto _ : state) benchmark::DoNotOptimize(fx.extract(s));
}
BENCHMARK(BM_FeatureExtraction);

void BM_CostModelPredict(benchmark::State& state) {
  CostSimulator sim(hw());
  XgbCostModel model(&hw());
  Subgraph g = make_gemm(512, 512, 512);
  auto sketches = generate_sketches(g);
  Rng rng(5);
  std::vector<Schedule> ss;
  std::vector<double> ts;
  for (int i = 0; i < 256; ++i) {
    Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
    ts.push_back(sim.simulate_ms(s));
    ss.push_back(std::move(s));
  }
  model.update(ss, ts);
  Schedule probe = random_schedule(sketches[0], hw().num_unroll_options(), rng);
  for (auto _ : state) benchmark::DoNotOptimize(model.predict(probe));
}
BENCHMARK(BM_CostModelPredict);

void BM_CostModelRefit256(benchmark::State& state) {
  CostSimulator sim(hw());
  Subgraph g = make_gemm(512, 512, 512);
  auto sketches = generate_sketches(g);
  Rng rng(6);
  std::vector<Schedule> ss;
  std::vector<double> ts;
  for (int i = 0; i < 256; ++i) {
    Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
    ts.push_back(sim.simulate_ms(s));
    ss.push_back(std::move(s));
  }
  for (auto _ : state) {
    XgbCostModel model(&hw());
    model.update(ss, ts);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_CostModelRefit256);

void BM_PpoAct(benchmark::State& state) {
  Subgraph g = make_gemm(1024, 1024, 1024);
  auto sketches = generate_sketches(g);
  ActionSpace space(sketches[0], hw().num_unroll_options());
  FeatureExtractor fx(&hw());
  Rng rng(7);
  Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
  std::vector<double> obs = rl_observation(fx, space, s);
  RlStateCodec codec(fx, space);
  auto sizes = space.head_sizes();
  PpoAgent agent(
      rl_observation_dim(space), codec.bytes(),
      [&codec](const std::uint8_t* state, double* out) { codec.observe(state, out); },
      std::vector<int>(sizes.begin(), sizes.end()), PpoConfig{}, 1,
      space.tile_action_support(), rl_observation_support(space));
  std::vector<bool> mask;
  space.tile_action_mask(s, &mask);
  for (auto _ : state) benchmark::DoNotOptimize(agent.act(obs, mask, rng));
}
BENCHMARK(BM_PpoAct);

void BM_PpoTrainMinibatch(benchmark::State& state) {
  PpoConfig cfg;
  cfg.minibatch_size = 64;
  cfg.update_epochs = 1;
  // States are two-byte ids into a table of observations (the ring stores
  // the id).
  std::vector<std::vector<double>> table;
  PpoAgent agent(
      32, 2,
      [&table](const std::uint8_t* state, double* out) {
        const std::vector<double>& row = table[std::size_t{state[0]} | std::size_t{state[1]} << 8];
        std::copy(row.begin(), row.end(), out);
      },
      {16, 3, 3, 3}, cfg, 2);
  Rng rng(8);
  PpoAgent::ActResult act;
  act.logp = -2.0;
  for (int i = 0; i < 512; ++i) {
    table.emplace_back(32, rng.next_double());
    act.actions = {rng.next_int(0, 15), rng.next_int(0, 2), rng.next_int(0, 2),
                   rng.next_int(0, 2)};
    double reward = rng.next_normal();
    agent.store({static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8)}, act, reward,
                0.0, {});
  }
  for (auto _ : state) benchmark::DoNotOptimize(agent.train(rng));
}
BENCHMARK(BM_PpoTrainMinibatch);

void BM_SwUcbSelectUpdate(benchmark::State& state) {
  SwUcb bandit(24);  // ResNet-50 task count
  Rng rng(9);
  for (auto _ : state) {
    int a = bandit.select();
    bandit.update(a, rng.next_double());
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_SwUcbSelectUpdate);

void BM_ActionMaskGemm(benchmark::State& state) {
  Subgraph g = make_gemm(1024, 1024, 1024);
  auto sketches = generate_sketches(g);
  ActionSpace space(sketches[0], hw().num_unroll_options());
  Rng rng(10);
  Schedule s = random_schedule(sketches[0], hw().num_unroll_options(), rng);
  std::vector<bool> mask;
  for (auto _ : state) {
    space.tile_action_mask(s, &mask);
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_ActionMaskGemm);

void BM_MeasureBatch64(benchmark::State& state) {
  CostSimulator sim(hw());
  Measurer measurer(&sim, 11);
  Subgraph g = make_gemm(512, 512, 512);
  auto sketches = generate_sketches(g);
  Rng rng(11);
  std::vector<Schedule> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(random_schedule(sketches[0], hw().num_unroll_options(), rng));
  }
  for (auto _ : state) benchmark::DoNotOptimize(measurer.measure_batch(batch));
}
BENCHMARK(BM_MeasureBatch64);

}  // namespace
}  // namespace harl

BENCHMARK_MAIN();
