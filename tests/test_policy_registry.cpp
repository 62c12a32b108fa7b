#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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

TEST(PolicyRegistryTest, CaseVariantsAreOneName) {
  PolicyRegistry& reg = PolicyRegistry::instance();
  for (const char* name : {"HARL", "harl", "Harl"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_EQ(reg.task_select(name), "sw-ucb") << name;
    EXPECT_FALSE(reg.register_policy(
        name, [](TaskState* task, const SearchOptions& opts) {
          return std::make_unique<RandomSearchPolicy>(task, opts.seed);
        }))
        << name;
  }
  std::vector<std::string> names = reg.names();
  EXPECT_EQ(std::count(names.begin(), names.end(), "HARL"), 1);
  EXPECT_EQ(std::count(names.begin(), names.end(), "harl"), 0);
  EXPECT_EQ(std::count(names.begin(), names.end(), "Harl"), 0);
}

TEST(PolicyRegistryTest, FactoryMayCreateAnotherPolicy) {
  // A wrapping factory (like a timing wrapper around a built-in) looks the
  // inner policy up from inside its own creation: creation must run with no
  // registry lock held, or this deadlocks.
  static std::atomic<int> inner_created{0};
  PolicyRegistry::instance().register_policy(
      "test-reentrant", [](TaskState* task, const SearchOptions& opts) {
        std::unique_ptr<SearchPolicy> inner =
            PolicyRegistry::instance().create("random", task, opts);
        if (inner != nullptr) inner_created += 1;
        return inner;
      });
  Network net;
  net.subgraphs.push_back(make_gemm(32, 32, 32, 1, "reentrant_a"));
  net.subgraphs.push_back(make_gemm(16, 16, 16, 1, "reentrant_b"));
  HardwareConfig hw = HardwareConfig::test_config();
  SearchOptions opts = quick_options(PolicyKind::kHarl, 5);
  opts.policy_name = "TEST-REENTRANT";
  opts.measures_per_round = 4;
  int before = inner_created.load();
  TuningSession session(net, hw, opts);
  EXPECT_EQ(inner_created.load() - before, 2);
  EXPECT_STREQ(session.scheduler().policy(1).name(), "Random");
  session.run(24);
  EXPECT_GE(session.measurer().trials_used(), 24);
}

TEST(PolicyRegistryTest, ConcurrentRegisterAndCreateKeepNamesConsistent) {
  // Four threads race to register the same 40 names, each in its own
  // spelling, while creating and listing: each name is won exactly once,
  // every spelling finds the winner's factory, and names() lists each name
  // once, in the winner's spelling.
  constexpr int kThreads = 4;
  constexpr int kNames = 40;
  const char* prefixes[kThreads] = {"conc-", "CONC-", "Conc-", "cOnC-"};
  // Static: the registry outlives this test and keeps the factories.
  static std::atomic<int> wins[kNames];
  static std::atomic<int> created[kNames];
  // Counts are taken relative to the start, and a name registered by an
  // earlier pass (--gtest_repeat) is won by nobody this time.
  int wins_before[kNames];
  int created_before[kNames];
  bool fresh[kNames];
  for (int i = 0; i < kNames; ++i) {
    wins_before[i] = wins[i].load();
    created_before[i] = created[i].load();
    fresh[i] = !PolicyRegistry::instance().contains(prefixes[0] + std::to_string(i));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PolicyRegistry& reg = PolicyRegistry::instance();
      for (int i = 0; i < kNames; ++i) {
        std::string name = prefixes[t] + std::to_string(i);
        bool won = reg.register_policy(
            name, [i](TaskState*, const SearchOptions&) {
              created[i] += 1;
              return std::unique_ptr<SearchPolicy>();
            });
        if (won) wins[i] += 1;
        EXPECT_TRUE(reg.contains(prefixes[(t + 1) % kThreads] +
                                 std::to_string(i)));
        SearchOptions opts;
        EXPECT_EQ(reg.create(name, nullptr, opts), nullptr);
        EXPECT_FALSE(reg.names().empty());
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::vector<std::string> names = PolicyRegistry::instance().names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (int i = 0; i < kNames; ++i) {
    EXPECT_EQ(wins[i].load() - wins_before[i], fresh[i] ? 1 : 0) << i;
    EXPECT_EQ(created[i].load() - created_before[i], kThreads) << i;
    int listed = 0;
    for (const char* prefix : prefixes) {
      listed += static_cast<int>(std::count(names.begin(), names.end(),
                                            prefix + std::to_string(i)));
    }
    EXPECT_EQ(listed, 1) << i;
  }
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
