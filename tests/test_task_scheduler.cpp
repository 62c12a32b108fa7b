#include <gtest/gtest.h>

#include <cmath>

#include "core/presets.hpp"
#include "search/task_scheduler.hpp"
#include "search/task_select.hpp"
#include "util/thread_pool.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

Network tiny_network() {
  Network net;
  net.name = "tiny";
  net.subgraphs.push_back(make_gemm(128, 128, 128, 1, "g_big", 4.0));
  net.subgraphs.push_back(make_gemm(64, 64, 64, 1, "g_small", 1.0));
  net.subgraphs.push_back(make_elementwise(1 << 14, 2.0, "ew", 2.0));
  return net;
}

SearchOptions tiny_options(PolicyKind kind) {
  SearchOptions opts = quick_options(kind, 5);
  opts.harl.stop.initial_tracks = 8;
  opts.harl.stop.min_tracks = 2;
  opts.harl.stop.window = 4;
  opts.harl.ppo.minibatch_size = 16;
  opts.harl.ppo.update_epochs = 1;
  opts.ansor.population = 24;
  opts.ansor.generations = 2;
  opts.measures_per_round = 5;
  return opts;
}

struct SchedulerFixture : ::testing::Test {
  SchedulerFixture()
      : net(tiny_network()),
        hw([] {
          HardwareConfig h = HardwareConfig::xeon_6226r();
          h.noise_sigma = 0;
          return h;
        }()),
        sim(hw),
        measurer(&sim, 9) {}

  Network net;
  HardwareConfig hw;
  CostSimulator sim;
  Measurer measurer;
};

TEST_F(SchedulerFixture, WarmupToursEveryTask) {
  TaskScheduler sched(&net, &hw, tiny_options(PolicyKind::kHarl));
  sched.run(measurer, 15);  // exactly 3 rounds of 5
  for (int i = 0; i < sched.num_tasks(); ++i) {
    EXPECT_EQ(sched.task(i).rounds(), 1) << "task " << i;
  }
  EXPECT_TRUE(std::isfinite(sched.estimated_latency_ms()));
}

TEST_F(SchedulerFixture, LatencyInfiniteBeforeFullWarmup) {
  TaskScheduler sched(&net, &hw, tiny_options(PolicyKind::kHarl));
  sched.run(measurer, 5);  // only one task tuned
  EXPECT_TRUE(std::isinf(sched.estimated_latency_ms()));
}

TEST_F(SchedulerFixture, BudgetIsRespected) {
  TaskScheduler sched(&net, &hw, tiny_options(PolicyKind::kAnsor));
  sched.run(measurer, 60);
  EXPECT_GE(measurer.trials_used(), 60);
  EXPECT_LT(measurer.trials_used(), 60 + 10);  // at most one round overshoot
  auto alloc = sched.task_allocations();
  std::int64_t total = 0;
  for (std::int64_t a : alloc) total += a;
  EXPECT_EQ(total, measurer.trials_used());
}

TEST_F(SchedulerFixture, GradientIsFiniteAfterWarmupAndNegative) {
  TaskScheduler sched(&net, &hw, tiny_options(PolicyKind::kAnsor));
  sched.run(measurer, 30);
  for (int i = 0; i < sched.num_tasks(); ++i) {
    double g = sched.task_gradient(i);
    EXPECT_TRUE(std::isfinite(g)) << i;
    EXPECT_LE(g, 0.0) << i;  // both Eq. 3 terms are non-positive here
  }
}

TEST_F(SchedulerFixture, GradientScalesWithWeight) {
  // Duplicate tasks with different weights: heavier weight => more negative
  // gradient (chain term |df/dg| = w).
  Network dup;
  dup.name = "dup";
  dup.subgraphs.push_back(make_gemm(96, 96, 96, 1, "a", 1.0));
  dup.subgraphs.push_back(make_gemm(96, 96, 96, 1, "b", 8.0));
  TaskScheduler sched(&dup, &hw, tiny_options(PolicyKind::kAnsor));
  sched.run(measurer, 20);
  EXPECT_LT(sched.task_gradient(1), sched.task_gradient(0));
}

TEST_F(SchedulerFixture, RoundLogTracksSelections) {
  TaskScheduler sched(&net, &hw, tiny_options(PolicyKind::kHarl));
  sched.run(measurer, 50);
  const auto& log = sched.round_log();
  ASSERT_GE(log.size(), 10u);
  for (const auto& r : log) {
    EXPECT_GE(r.task, 0);
    EXPECT_LT(r.task, sched.num_tasks());
    EXPECT_GT(r.trials_after, 0);
  }
  // Cumulative trials are non-decreasing.
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_GE(log[i].trials_after, log[i - 1].trials_after);
  }
}

TEST_F(SchedulerFixture, MabAllocatesBeyondWarmup) {
  SearchOptions opts = tiny_options(PolicyKind::kHarl);
  TaskScheduler sched(&net, &hw, opts);
  sched.run(measurer, 150);
  auto alloc = sched.task_allocations();
  for (std::int64_t a : alloc) EXPECT_GE(a, 5);  // everyone got warmup+
  EXPECT_STREQ(sched.selector().name(), "sw-ucb");
}

TEST_F(SchedulerFixture, GreedySelectDefaultsForAnsor) {
  SearchOptions opts = tiny_options(PolicyKind::kAnsor);
  EXPECT_STREQ(TaskScheduler(&net, &hw, opts).selector().name(), "greedy-gradient");
  opts.task_select_name = "round-robin";
  EXPECT_STREQ(TaskScheduler(&net, &hw, opts).selector().name(), "round-robin");
}

TEST_F(SchedulerFixture, RoundRobinBalancesAllocations) {
  SearchOptions opts = tiny_options(PolicyKind::kRandom);
  opts.task_select_name = "round-robin";
  TaskScheduler sched(&net, &hw, opts);
  sched.run(measurer, 90);
  auto alloc = sched.task_allocations();
  EXPECT_EQ(alloc[0], alloc[1]);
  EXPECT_EQ(alloc[1], alloc[2]);
}

TEST_F(SchedulerFixture, RunRoundPipelineWarmsUpThenProgresses) {
  TaskScheduler sched(&net, &hw, tiny_options(PolicyKind::kHarl));
  // The first num_tasks rounds are the warmup tour, one per task.
  std::vector<bool> warmed(static_cast<std::size_t>(sched.num_tasks()), false);
  for (int i = 0; i < sched.num_tasks(); ++i) {
    TaskScheduler::RoundResult r = sched.run_round(measurer);
    EXPECT_GE(r.task, 0);
    EXPECT_LT(r.task, sched.num_tasks());
    EXPECT_FALSE(warmed[static_cast<std::size_t>(r.task)]);
    warmed[static_cast<std::size_t>(r.task)] = true;
    EXPECT_GT(r.trials_consumed, 0);
    EXPECT_GE(r.records, static_cast<std::size_t>(r.trials_consumed));
  }
  TaskScheduler::RoundResult r = sched.run_round(measurer);
  EXPECT_TRUE(std::isfinite(r.net_latency_ms));
  EXPECT_EQ(sched.round_log().size(), static_cast<std::size_t>(sched.num_tasks()) + 1);
}

// The acceptance property of the parallel engine: a tuning run's results are
// a pure function of the seed, independent of measurement thread count.
TEST(SchedulerDeterminism, ParallelRunBitIdenticalToSerial) {
  Network net = tiny_network();
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  hw.noise_sigma = 0.05;  // jitter on: per-trial noise must replay exactly

  auto run_one = [&](ThreadPool* pool) {
    SearchOptions opts = tiny_options(PolicyKind::kHarl);
    opts.pool = pool;
    CostSimulator sim(hw);
    Measurer measurer(&sim, 9);
    measurer.set_pool(pool);
    measurer.enable_cache(opts.measure_cache_capacity);
    TaskScheduler sched(&net, &hw, opts);
    sched.run(measurer, 80);
    std::vector<double> bests;
    for (int i = 0; i < sched.num_tasks(); ++i) {
      bests.push_back(sched.task(i).best_time_ms());
    }
    return std::make_tuple(sched.round_log(), bests, measurer.trials_used());
  };

  ThreadPool serial(1), wide(4);
  auto [log_s, bests_s, trials_s] = run_one(&serial);
  auto [log_w, bests_w, trials_w] = run_one(&wide);

  EXPECT_EQ(trials_s, trials_w);
  EXPECT_EQ(bests_s, bests_w);  // bitwise: same noise draws, same schedules
  ASSERT_EQ(log_s.size(), log_w.size());
  for (std::size_t i = 0; i < log_s.size(); ++i) {
    EXPECT_EQ(log_s[i].task, log_w[i].task) << i;
    EXPECT_EQ(log_s[i].trials_after, log_w[i].trials_after) << i;
    EXPECT_EQ(log_s[i].net_latency_ms, log_w[i].net_latency_ms) << i;
  }
}

TEST_F(SchedulerFixture, CacheHitsKeepAllocationInvariant) {
  measurer.enable_cache(4096);
  TaskScheduler sched(&net, &hw, tiny_options(PolicyKind::kAnsor));
  sched.run(measurer, 60);
  // Cached records commit to tasks but consume no trials; the accounting
  // invariant sum(task trials) == measurer trials must survive that.
  auto alloc = sched.task_allocations();
  std::int64_t total = 0;
  for (std::int64_t a : alloc) total += a;
  EXPECT_EQ(total, measurer.trials_used());
  EXPECT_GE(measurer.trials_used(), 60);
}

TEST_F(SchedulerFixture, WarmStartRefitKeepsAllocationInvariant) {
  // Warm-start refits (refit_period > 1) change only how the cost model
  // retrains; trial accounting must stay exact, including with the measure
  // cache replaying records.
  measurer.enable_cache(4096);
  SearchOptions opts = tiny_options(PolicyKind::kAnsor);
  opts.cost_model.refit_period = 4;
  opts.cost_model.warm_trees = 6;
  TaskScheduler sched(&net, &hw, opts);
  sched.run(measurer, 60);
  auto alloc = sched.task_allocations();
  std::int64_t total = 0;
  for (std::int64_t a : alloc) total += a;
  EXPECT_EQ(total, measurer.trials_used());
  EXPECT_GE(measurer.trials_used(), 60);
}

// Same acceptance property as ParallelRunBitIdenticalToSerial, but with the
// new cost-model knobs (warm start + histogram splits) both engaged.
TEST(SchedulerDeterminism, WarmStartHistogramRunBitIdenticalToSerial) {
  Network net = tiny_network();
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  hw.noise_sigma = 0.05;

  auto run_one = [&](ThreadPool* pool) {
    SearchOptions opts = tiny_options(PolicyKind::kHarl);
    opts.pool = pool;
    opts.cost_model.refit_period = 3;
    opts.cost_model.gbdt.split_mode = SplitMode::kHistogram;
    CostSimulator sim(hw);
    Measurer measurer(&sim, 9);
    measurer.set_pool(pool);
    measurer.enable_cache(opts.measure_cache_capacity);
    TaskScheduler sched(&net, &hw, opts);
    sched.run(measurer, 60);
    std::vector<double> bests;
    for (int i = 0; i < sched.num_tasks(); ++i) {
      bests.push_back(sched.task(i).best_time_ms());
    }
    return std::make_tuple(sched.round_log(), bests, measurer.trials_used());
  };

  ThreadPool serial(1), wide(4);
  auto [log_s, bests_s, trials_s] = run_one(&serial);
  auto [log_w, bests_w, trials_w] = run_one(&wide);

  EXPECT_EQ(trials_s, trials_w);
  EXPECT_EQ(bests_s, bests_w);
  ASSERT_EQ(log_s.size(), log_w.size());
  for (std::size_t i = 0; i < log_s.size(); ++i) {
    EXPECT_EQ(log_s[i].task, log_w[i].task) << i;
    EXPECT_EQ(log_s[i].trials_after, log_w[i].trials_after) << i;
    EXPECT_EQ(log_s[i].net_latency_ms, log_w[i].net_latency_ms) << i;
  }
}

TEST(PolicyKindNames, AllDistinct) {
  EXPECT_STREQ(policy_kind_name(PolicyKind::kHarl), "HARL");
  EXPECT_STREQ(policy_kind_name(PolicyKind::kHarlFixedLength), "Hierarchical-RL");
  EXPECT_STREQ(policy_kind_name(PolicyKind::kAnsor), "Ansor");
  EXPECT_STREQ(policy_kind_name(PolicyKind::kFlextensor), "Flextensor");
  EXPECT_STREQ(policy_kind_name(PolicyKind::kAutoTvmSa), "AutoTVM-SA");
  EXPECT_STREQ(policy_kind_name(PolicyKind::kRandom), "Random");
}

}  // namespace
}  // namespace harl
