#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/presets.hpp"
#include "core/tuning.hpp"
#include "search/policy_registry.hpp"
#include "search/task_scheduler.hpp"
#include "search/task_select.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

TEST(PolicyRegistryTest, BuiltinsRegistered) {
  PolicyRegistry& reg = PolicyRegistry::instance();
  for (PolicyKind kind : {PolicyKind::kHarl, PolicyKind::kHarlFixedLength,
                          PolicyKind::kAnsor, PolicyKind::kFlextensor,
                          PolicyKind::kAutoTvmSa, PolicyKind::kRandom}) {
    EXPECT_TRUE(reg.contains(policy_kind_name(kind))) << policy_kind_name(kind);
  }
  EXPECT_TRUE(reg.contains("harl"));  // case-insensitive
  EXPECT_FALSE(reg.contains("no-such-policy"));
  EXPECT_GE(reg.names().size(), 6u);
}

TEST(PolicyRegistryTest, DuplicateRegistrationRejected) {
  PolicyRegistry& reg = PolicyRegistry::instance();
  EXPECT_FALSE(reg.register_policy(
      "HARL", [](TaskState* task, const SearchOptions& opts) {
        return std::make_unique<RandomSearchPolicy>(task, opts.seed);
      }));
  EXPECT_FALSE(reg.register_policy(
      "harl", [](TaskState* task, const SearchOptions& opts) {
        return std::make_unique<RandomSearchPolicy>(task, opts.seed);
      }));
  EXPECT_FALSE(reg.register_policy("", nullptr));
}

TEST(PolicyRegistryTest, RegisteredRuleIsTheDefaultTaskSelection) {
  PolicyRegistry& reg = PolicyRegistry::instance();
  auto factory = [](TaskState* task, const SearchOptions& opts) {
    return std::make_unique<RandomSearchPolicy>(task, opts.seed);
  };
  reg.register_policy("test-no-rule", factory);
  reg.register_policy("test-greedy", factory, "greedy-gradient");
  EXPECT_FALSE(reg.register_policy("test-empty-rule", factory, ""));
  EXPECT_EQ(reg.task_select("test-no-rule"), "sw-ucb");
  EXPECT_EQ(reg.task_select("TEST-GREEDY"), "greedy-gradient");
  EXPECT_EQ(reg.task_select("ansor"), "greedy-gradient");
  EXPECT_EQ(reg.task_select("no-such-policy"), "");

  Network net;
  net.subgraphs.push_back(make_gemm(32, 32, 32, 1, "rule_gemm"));
  HardwareConfig hw = HardwareConfig::test_config();
  SearchOptions opts;
  opts.policy_name = "test-no-rule";
  EXPECT_STREQ(TaskScheduler(&net, &hw, opts).selector().name(), "sw-ucb");
  opts.policy_name = "test-greedy";
  EXPECT_STREQ(TaskScheduler(&net, &hw, opts).selector().name(), "greedy-gradient");
  opts.task_select_name = "round-robin";  // an explicit rule wins
  EXPECT_STREQ(TaskScheduler(&net, &hw, opts).selector().name(), "round-robin");
}

// ---- the acceptance criterion: a policy registered from test code (outside
// src/search/) runs end-to-end through TuningSession without touching any
// library source. ---------------------------------------------------------

/// A minimal but real policy: sample random schedules of a random sketch,
/// measure the requested batch, commit.  Lives entirely in this test file.
class TestRandomWalkPolicy : public SearchPolicy {
 public:
  TestRandomWalkPolicy(TaskState* task, std::uint64_t seed)
      : task_(task), rng_(seed ^ 0x7e57ULL) {}

  const char* name() const override { return "test-random-walk"; }

  std::vector<MeasuredRecord> tune_round(Measurer& measurer,
                                         int num_measures) override {
    std::vector<Schedule> scheds;
    scheds.reserve(static_cast<std::size_t>(num_measures));
    int unroll = task_->hardware().num_unroll_options();
    for (int i = 0; i < num_measures; ++i) {
      int u = rng_.next_int(0, task_->num_sketches() - 1);
      scheds.push_back(random_schedule(task_->sketch(u), unroll, rng_));
    }
    return measure_and_commit(*task_, measurer, scheds);
  }

 private:
  TaskState* task_;
  Rng rng_;
};

TEST(PolicyRegistryTest, ExternalPolicyRunsEndToEnd) {
  bool registered = PolicyRegistry::instance().register_policy(
      "test-random-walk", [](TaskState* task, const SearchOptions& opts) {
        return std::make_unique<TestRandomWalkPolicy>(task, opts.seed);
      });
  // Other tests in this binary may have registered it already; both are fine
  // as long as the name resolves.
  (void)registered;
  ASSERT_TRUE(PolicyRegistry::instance().contains("test-random-walk"));

  Network net;
  net.name = "external_policy_net";
  net.subgraphs.push_back(make_gemm(64, 64, 64, 1, "xp_gemm", 2.0));
  net.subgraphs.push_back(make_elementwise(1 << 12, 2.0, "xp_ew", 1.0));

  SearchOptions opts = quick_options(PolicyKind::kHarl, 17);
  opts.policy_name = "test-random-walk";
  opts.measures_per_round = 5;

  HardwareConfig hw = HardwareConfig::xeon_6226r();
  TuningSession session(net, hw, opts);
  EXPECT_STREQ(session.scheduler().policy(0).name(), "test-random-walk");
  session.run(40);

  EXPECT_TRUE(std::isfinite(session.latency_ms()));
  EXPECT_GE(session.measurer().trials_used(), 40);
  EXPECT_FALSE(session.scheduler().round_log().empty());
  EXPECT_EQ(session.scheduler().options().policy_name, "test-random-walk");
  // Registered without a rule: the SW-UCB bandit, like any name-only config.
  EXPECT_STREQ(session.scheduler().selector().name(), "sw-ucb");
}

TEST(PolicyRegistryTest, UnknownPolicyNameThrows) {
  Network net;
  net.subgraphs.push_back(make_gemm(32, 32, 32, 1, "die_gemm"));
  SearchOptions opts = quick_options(PolicyKind::kHarl, 1);
  opts.policy_name = "definitely-not-registered";
  HardwareConfig hw = HardwareConfig::test_config();
  try {
    TuningSession session(net, hw, opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Recoverable user-input error; the message lists what *is* registered.
    EXPECT_NE(std::string(e.what()).find("unknown policy"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("HARL"), std::string::npos);
  }
}

}  // namespace
}  // namespace harl
