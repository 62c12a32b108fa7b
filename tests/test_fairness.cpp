#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/harl.hpp"
#include "io/safe_file.hpp"
#include "server/server.hpp"
#include "server/tenant.hpp"

namespace harl {
namespace {

// ----------------------------------------------------------------- helpers

void remove_tree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    std::string path = dir + "/" + name;
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      remove_tree(path);
    } else {
      std::remove(path.c_str());
    }
  }
  ::closedir(d);
  ::rmdir(dir.c_str());
}

struct TempDir {
  explicit TempDir(std::string p) : path(std::move(p)) { remove_tree(path); }
  ~TempDir() { remove_tree(path); }
  std::string path;
};

/// Run `rounds` dispatches where every tenant always has queued work of unit
/// cost, and return the per-tenant dispatch tally.
std::map<std::string, int> tally(TenantRegistry& reg,
                                 const std::vector<DispatchCandidate>& cands,
                                 int rounds) {
  std::map<std::string, int> counts;
  for (int i = 0; i < rounds; ++i) {
    int w = reg.pick_weighted(cands);
    if (w >= 0) counts[cands[static_cast<std::size_t>(w)].name] += 1;
  }
  return counts;
}

// ------------------------------------------------------- deficit round-robin

TEST(Fairness, NoStarvationUnderAdversarialSubmission) {
  // One tenant floods with huge jobs; two others trickle small ones.  Every
  // tenant with queued work must keep getting dispatched — the flood can
  // slow the others down, never starve them.
  TenantRegistry reg(/*default_budget=*/1 << 30);
  std::vector<DispatchCandidate> cands = {
      {"flood", 1000},  // adversary: giant jobs, submitted forever
      {"mouse1", 10},
      {"mouse2", 10},
  };
  std::map<std::string, int> counts = tally(reg, cands, 300);
  EXPECT_GT(counts["flood"], 0);
  EXPECT_GT(counts["mouse1"], 0);
  EXPECT_GT(counts["mouse2"], 0);
  // Equal weights ⇒ equal *trial* shares: the flood's count is ~100x lower
  // because each of its dispatches costs 100x more.
  EXPECT_NEAR(counts["mouse1"] * 10.0, counts["flood"] * 1000.0,
              /*one flood job of slack=*/1000.0);
  EXPECT_NEAR(counts["mouse1"], counts["mouse2"], 1);
}

TEST(Fairness, WeightsGiveProportionalSharesWithinOneRound) {
  // 10:1 weights, unit costs: between two credit top-ups the heavy tenant
  // can afford ten dispatches for the light tenant's one, so the share
  // converges to the weight ratio almost immediately.
  TenantRegistry reg(1 << 30);
  reg.set_weight("heavy", 10.0);
  reg.set_weight("light", 1.0);
  std::vector<DispatchCandidate> cands = {{"heavy", 1}, {"light", 1}};
  std::map<std::string, int> counts = tally(reg, cands, 110);
  // Exactly one top-up per 11 dispatches: 100 heavy, 10 light.
  EXPECT_EQ(counts["heavy"], 100);
  EXPECT_EQ(counts["light"], 10);
}

TEST(Fairness, TenTenantsUnderTenToOneOverloadGetWeightedShares) {
  // The acceptance scenario: one tenant submits 10x everyone else's load.
  // With equal weights, sustained overload must not shift anyone's share —
  // dispatch is deficit-paced, not queue-depth-paced.
  TenantRegistry reg(1 << 30);
  std::vector<DispatchCandidate> cands;
  cands.push_back({"hog", 10});  // 10x cost ~ 10x queued work per pick
  for (int i = 0; i < 4; ++i) {
    cands.push_back({"t" + std::to_string(i), 1});
  }
  std::map<std::string, int> counts = tally(reg, cands, 500);
  // Equal weights: equal trial throughput.  hog spends 10 per dispatch, so
  // the others must each be dispatched ~10x as often.
  for (int i = 0; i < 4; ++i) {
    std::string name = "t" + std::to_string(i);
    EXPECT_GT(counts[name], 0) << name;
    EXPECT_NEAR(counts[name], counts["hog"] * 10.0, 10.0) << name;
  }
}

TEST(Fairness, DispatchIsDeterministicAndReplayable) {
  // Same weights, same candidate sequence ⇒ the same winner sequence, pick
  // by pick.  This is what makes a dispatch trace replayable.
  auto run = [] {
    TenantRegistry reg(1 << 30);
    reg.set_weight("a", 3.0);
    reg.set_weight("b", 1.5);
    reg.set_weight("c", 1.0);
    std::vector<DispatchCandidate> cands = {{"a", 7}, {"b", 3}, {"c", 5}};
    std::vector<int> winners;
    for (int i = 0; i < 200; ++i) winners.push_back(reg.pick_weighted(cands));
    return winners;
  };
  EXPECT_EQ(run(), run());
}

TEST(Fairness, ClearDeficitResetsBankedCredit) {
  TenantRegistry reg(1 << 30);
  reg.set_weight("a", 10.0);
  std::vector<DispatchCandidate> cands = {{"a", 1}, {"b", 1}};
  // First pick tops both up: a banks 10 credits, b banks 1.
  ASSERT_GE(reg.pick_weighted(cands), 0);
  reg.clear_deficit("a");
  // With its bank gone, "a" must earn fresh credit like everyone else: the
  // next 10 dispatches can't all be a's.
  std::map<std::string, int> counts = tally(reg, cands, 10);
  EXPECT_GT(counts["b"], 0);
}

TEST(Fairness, UnknownAndNonPositiveWeightsFallBackToOne) {
  TenantRegistry reg(1 << 30);
  EXPECT_EQ(reg.weight("nobody"), 1.0);
  reg.set_weight("a", -2.0);  // ignored
  reg.set_weight("a", 0.0);   // ignored
  EXPECT_EQ(reg.weight("a"), 1.0);
  reg.set_weight("a", 4.0);
  EXPECT_EQ(reg.weight("a"), 4.0);
}

// ------------------------------------------------------------ server level

/// The journal's "done" lines record completion order; with max_concurrent=1
/// that IS the dispatch order.
std::vector<std::int64_t> done_order(const std::string& state_dir) {
  std::string text, err;
  std::vector<std::int64_t> order;
  if (!read_text_file(state_dir + "/jobs.jsonl", &text, &err)) return order;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    static constexpr std::string_view kNames[] = {"ev", "job"};
    json::ParseError perr;
    json::Cursor c(line, &perr);
    json::Members<2> m(kNames);
    bool is_object = false;
    if (!m.read_document(c, &is_object) || m[0].string() != "done") continue;
    if (m[1].is(json::Kind::kNumber)) order.push_back(m[1].int64(0));
  }
  return order;
}

/// Flood the server with `hog` jobs, then a handful from two weighted
/// tenants, and return the completion order of all jobs.
std::vector<std::int64_t> run_overload_scenario(const std::string& dir) {
  ServerOptions opts;
  opts.state_dir = dir;
  opts.max_concurrent = 1;
  opts.tuning = quick_options(PolicyKind::kHarl);
  HarlServer server(std::move(opts));
  std::string error;
  EXPECT_TRUE(server.start(&error)) << error;

  auto hello = [&](const std::string& tenant, double weight) {
    Request req;
    req.type = RequestType::kHello;
    req.tenant = tenant;
    req.weight = weight;
    EXPECT_TRUE(server.handle_for_test(req).ok);
  };
  hello("hog", 1.0);
  hello("alice", 5.0);
  hello("bob", 5.0);

  auto tune = [&](const std::string& tenant, std::uint64_t seed) {
    Request req;
    req.type = RequestType::kTune;
    req.tenant = tenant;
    req.network = "bert";
    req.hw = "test";
    req.trials = 6;
    req.seed = seed;
    Response r = server.handle_for_test(req);
    EXPECT_TRUE(r.ok) << r.error;
    return r.job;
  };

  // Sustained 10:1 overload: hog floods ten jobs before anyone else asks.
  std::vector<std::int64_t> all;
  for (int i = 0; i < 10; ++i) all.push_back(tune("hog", 100 + i));
  all.push_back(tune("alice", 7));
  all.push_back(tune("bob", 8));

  for (std::int64_t job : all) {
    Request st;
    st.type = RequestType::kStatus;
    st.job = job;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(300);
    for (;;) {
      Response r = server.handle_for_test(st);
      if (!r.ok || r.state == "done" || r.state == "stopped") break;
      if (std::chrono::steady_clock::now() > deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  server.shutdown();
  return done_order(dir);
}

TEST(Fairness, OverloadedServerHonorsWeightsAndReplaysDeterministically) {
  TempDir dir_a("test_fairness_overload_a");
  std::vector<std::int64_t> order = run_overload_scenario(dir_a.path);
  ASSERT_EQ(order.size(), 12u);

  // Jobs 11 (alice) and 12 (bob) carry 5x hog's weight and only one job
  // each: under DRR they must complete well before hog's flood drains.
  // Weight-proportional floor: by the time hog has finished 5 jobs, both
  // weighted tenants must be done (they'd deserve ~5 completions each by
  // then at 5:1:1 weights).
  auto position = [&](std::int64_t job) {
    return std::find(order.begin(), order.end(), job) - order.begin();
  };
  long hog_fifth = -1;
  int hogs_seen = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] <= 10) {
      if (++hogs_seen == 5) hog_fifth = static_cast<long>(i);
    }
  }
  ASSERT_GE(hog_fifth, 0);
  EXPECT_LT(position(11), hog_fifth) << "alice starved by the flood";
  EXPECT_LT(position(12), hog_fifth) << "bob starved by the flood";

  // Replayable: the identical submission sequence in a fresh state dir
  // produces the identical completion order.
  TempDir dir_b("test_fairness_overload_b");
  EXPECT_EQ(order, run_overload_scenario(dir_b.path));
}

}  // namespace
}  // namespace harl
