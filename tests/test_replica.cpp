#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/harl.hpp"
#include "serve/knowledge_cache.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

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

ServerOptions primary_options(const std::string& state_dir) {
  ServerOptions opts;
  opts.state_dir = state_dir;
  opts.max_concurrent = 1;
  opts.tuning = quick_options(PolicyKind::kHarl);
  return opts;
}

ServerOptions replica_options(const std::string& state_dir) {
  ServerOptions opts = primary_options(state_dir);
  opts.replica = true;
  opts.watch_interval_ms = 5;
  return opts;
}

Request query_request() {
  Request req;
  req.type = RequestType::kQuery;
  req.network = "bert_b1";
  req.task = "GEMM-I";
  req.hw = "test";
  return req;
}

std::int64_t run_tune_job(HarlServer& primary, const std::string& tenant,
                          std::int64_t trials, std::uint64_t seed) {
  Request req;
  req.type = RequestType::kTune;
  req.tenant = tenant;
  req.network = "bert";
  req.hw = "test";
  req.trials = trials;
  req.seed = seed;
  Response r = primary.handle_for_test(req);
  EXPECT_TRUE(r.ok) << r.error;
  return r.job;
}

void wait_job_done(HarlServer& primary, std::int64_t job) {
  Request st;
  st.type = RequestType::kStatus;
  st.job = job;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(300);
  for (;;) {
    Response r = primary.handle_for_test(st);
    ASSERT_TRUE(r.ok) << r.error;
    if (r.state == "done") return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "job " << job << " stuck in " << r.state;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// Poll a replica until its answer comes from cache generation `gen`.
Response wait_for_generation(HarlServer& replica, std::uint64_t gen,
                             int timeout_s) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(timeout_s);
  Response r;
  for (;;) {
    r = replica.handle_for_test(query_request());
    if (r.ok && r.cache_gen == gen) return r;
    if (std::chrono::steady_clock::now() > deadline) return r;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// ------------------------------------------------------------ replica mode

TEST(Replica, RejectsMutationsServesQueriesAndReportsRole) {
  TempDir dir("test_replica_readonly");
  HarlServer replica(replica_options(dir.path));
  std::string error;
  ASSERT_TRUE(replica.start(&error)) << error;

  Request hello;
  hello.type = RequestType::kHello;
  hello.tenant = "alice";
  Response r = replica.handle_for_test(hello);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("read-only replica"), std::string::npos) << r.error;

  Request tune;
  tune.type = RequestType::kTune;
  tune.network = "bert";
  tune.hw = "test";
  tune.trials = 10;
  r = replica.handle_for_test(tune);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("read-only replica"), std::string::npos) << r.error;

  Request status;
  status.type = RequestType::kStatus;
  status.job = 1;
  r = replica.handle_for_test(status);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("read-only replica"), std::string::npos) << r.error;

  // Queries still serve (cold: golden advice), and stats names the role.
  r = replica.handle_for_test(query_request());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.tier, "L3");
  EXPECT_EQ(r.cache_gen, 0u);  // nothing published yet

  Request stats;
  stats.type = RequestType::kStats;
  r = replica.handle_for_test(stats);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.role, "replica");
  EXPECT_EQ(r.jobs_admitted, 0);

  // A replica must not create the primary's discovery file.
  struct stat st{};
  EXPECT_NE(::stat((dir.path + "/port").c_str(), &st), 0);
  replica.shutdown();
}

TEST(Replica, HotReloadsEachRepublishBitIdentically) {
  TempDir dir("test_replica_reload");
  HarlServer primary(primary_options(dir.path));
  std::string error;
  ASSERT_TRUE(primary.start(&error)) << error;

  wait_job_done(primary, run_tune_job(primary, "alice", 60, 41));
  Response p1 = primary.handle_for_test(query_request());
  ASSERT_TRUE(p1.ok) << p1.error;
  ASSERT_EQ(p1.tier, "L1");
  ASSERT_NE(p1.cache_gen, 0u);  // the session-end publish stamped it

  HarlServer replica(replica_options(dir.path));
  ASSERT_TRUE(replica.start(&error)) << error;
  Response r1 = wait_for_generation(replica, p1.cache_gen, 30);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_EQ(r1.cache_gen, p1.cache_gen);
  EXPECT_EQ(r1.tier, "L1");
  // Bit-identical serving: same record bytes, same schedule fingerprint.
  EXPECT_EQ(r1.record, p1.record);
  EXPECT_EQ(r1.schedule_fp, p1.schedule_fp);

  // A second job (new seed) republishes; the replica must catch up to the
  // new generation and serve the primary's *current* best — never the
  // retired one.
  wait_job_done(primary, run_tune_job(primary, "alice", 60, 97));
  Response p2 = primary.handle_for_test(query_request());
  ASSERT_TRUE(p2.ok) << p2.error;
  ASSERT_NE(p2.cache_gen, p1.cache_gen);
  Response r2 = wait_for_generation(replica, p2.cache_gen, 30);
  ASSERT_EQ(r2.cache_gen, p2.cache_gen);
  EXPECT_EQ(r2.record, p2.record);
  EXPECT_EQ(r2.schedule_fp, p2.schedule_fp);

  Request stats;
  stats.type = RequestType::kStats;
  Response s = replica.handle_for_test(stats);
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.role, "replica");
  EXPECT_GE(s.reloads, 2);  // initial publish + the republish

  // Restart chaos: a fresh replica over the same state dir answers the
  // current generation immediately (first-query load, before any watch).
  replica.shutdown();
  HarlServer reborn(replica_options(dir.path));
  ASSERT_TRUE(reborn.start(&error)) << error;
  Response r3 = reborn.handle_for_test(query_request());
  ASSERT_TRUE(r3.ok) << r3.error;
  EXPECT_EQ(r3.cache_gen, p2.cache_gen);
  EXPECT_EQ(r3.record, p2.record);
  reborn.shutdown();
  primary.shutdown();
}

TEST(Replica, NextQueryAfterBestDisplacementServesNewBest) {
  // The no-stale-window contract, in process: seed a slow cached best, run
  // a session through the updater (periodic publishing off, so only its
  // publish on each displaced best writes the file), and check the
  // published file always holds the current best — every displacement
  // republished before the next query could read.
  TempDir dir("test_replica_freshness");
  ASSERT_EQ(::mkdir(dir.path.c_str(), 0755), 0);
  const std::string path = dir.path + "/knowledge.cache.json";

  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 64, 64);
  Network net;
  net.name = "fresh_net";
  net.subgraphs.push_back(g);

  KnowledgeCache cache;
  {
    // A guaranteed-to-lose cached best: the session's first record retires
    // it, so at least one displacement republish must fire.
    std::vector<Sketch> sketches = generate_sketches(g);
    Rng rng(1);
    const Sketch& sk = sketches[rng.pick_index(sketches.size())];
    Schedule s = random_schedule(sk, hw.num_unroll_options(), rng);
    TuningRecord slow;
    slow.network = net.name;
    slow.task = g.name();
    slow.task_index = 0;
    slow.hardware_fp = hw.fingerprint();
    slow.policy = "test";
    slow.seed = 1;
    slow.sketch_id = sk.sketch_id;
    slow.sketch_tag = sk.tag;
    slow.stages = decisions_from_schedule(s);
    slow.time_ms = 1e9;
    slow.task_sig = g.structure_signature();
    slow.hw_sim = hw.similarity_vector();
    ASSERT_TRUE(cache.insert(slow));
  }

  CacheUpdateOptions copts;
  copts.save_period_rounds = 1000000;  // periodic path effectively off
  copts.save_path = path;
  KnowledgeCacheUpdater updater(&cache, copts);

  SearchOptions opts = quick_options(PolicyKind::kHarl, 17);
  opts.measures_per_round = 5;
  TuningSession session(net, hw, opts);
  session.add_callback(&updater);
  session.run(40);

  // The periodic cadence never fired, yet every best displacement
  // republished: the file must already hold the session's final best.
  EXPECT_GT(updater.best_publishes(), 0u);
  EXPECT_GT(cache.stats().invalidations, 0u);
  KnowledgeCache reader;
  std::string err;
  ASSERT_TRUE(load_cache(path, &reader, &err)) << err;
  ServeResult from_file = reader.serve(net.name, g, hw);
  ASSERT_EQ(from_file.tier, ServeTier::kL1);
  EXPECT_EQ(from_file.est_time_ms, session.task_best_ms(0));

  ServeResult live = cache.serve(net.name, g, hw);
  ASSERT_EQ(live.tier, ServeTier::kL1);
  EXPECT_EQ(record_to_json(live.record), record_to_json(from_file.record));
}

// ------------------------------------------------------------------- soak

TEST(Replica, SoakConcurrentQueriesDuringTuningWithReplicaRestart) {
  // Primary tunes and republishes every round while one in-process client
  // hammers the primary and two hammer replicas.  Contracts under fire:
  // answers always parse, the best estimate per serving process never
  // regresses (a retired best would regress it), and after the dust
  // settles every replica is bit-identical to the primary.
  TempDir dir("test_replica_soak");
  ServerOptions popts = primary_options(dir.path);
  popts.cache_save_period = 1;  // republish every round: maximum churn
  HarlServer primary(std::move(popts));
  std::string error;
  ASSERT_TRUE(primary.start(&error)) << error;

  // Seed knowledge so soak queries hit L1 from the start.
  wait_job_done(primary, run_tune_job(primary, "soak", 40, 11));

  auto replica_a = std::make_unique<HarlServer>(replica_options(dir.path));
  auto replica_b = std::make_unique<HarlServer>(replica_options(dir.path));
  ASSERT_TRUE(replica_a->start(&error)) << error;
  ASSERT_TRUE(replica_b->start(&error)) << error;

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::atomic<std::int64_t> answers{0};
  // replica_b is killed and reborn mid-soak.  Its querier takes b_mu around
  // every query, so the restart (which also takes b_mu) can never destroy
  // an instance with a query in flight.
  std::mutex b_mu;
  HarlServer* b_live = replica_b.get();

  auto hammer = [&](auto&& acquire) {
    double best_seen = -1;
    while (!stop.load()) {
      bool regressed = false;
      bool malformed = false;
      bool answered = acquire([&](HarlServer& server) {
        Response r = server.handle_for_test(query_request());
        if (!r.ok || r.tier != "L1") return false;
        if (r.record.empty() || r.schedule_fp == 0 || !(r.est_time_ms > 0)) {
          malformed = true;
          return false;
        }
        // Freshness: a retired best would move est_time_ms back up.
        if (best_seen > 0 && r.est_time_ms > best_seen + 1e-9) regressed = true;
        if (best_seen < 0 || r.est_time_ms < best_seen) {
          best_seen = r.est_time_ms;
        }
        return true;
      });
      if (malformed || regressed) violations.fetch_add(1);
      if (answered) {
        answers.fetch_add(1);
      } else if (!malformed) {
        // Not up (mid-restart) or not yet L1: back off, restart the
        // monotonic clock (a reborn replica is a fresh serving process).
        best_seen = -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    hammer([&](auto&& fn) { return fn(primary); });
  });
  threads.emplace_back([&] {
    hammer([&](auto&& fn) { return fn(*replica_a); });
  });
  threads.emplace_back([&] {
    hammer([&](auto&& fn) {
      std::lock_guard<std::mutex> lk(b_mu);
      if (b_live == nullptr) return false;
      return fn(*b_live);
    });
  });

  // Tuning churn under the queries: two more jobs, republish every round.
  std::int64_t job2 = run_tune_job(primary, "soak", 60, 42);
  wait_job_done(primary, job2);

  // Chaos: kill replica_b mid-soak, then bring it back.
  {
    std::lock_guard<std::mutex> lk(b_mu);
    b_live = nullptr;
  }
  replica_b->shutdown();
  replica_b.reset();
  replica_b = std::make_unique<HarlServer>(replica_options(dir.path));
  ASSERT_TRUE(replica_b->start(&error)) << error;
  {
    std::lock_guard<std::mutex> lk(b_mu);
    b_live = replica_b.get();
  }

  std::int64_t job3 = run_tune_job(primary, "soak", 60, 77);
  wait_job_done(primary, job3);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(answers.load(), 0);

  // Convergence: both replicas settle on the primary's final generation
  // with byte-identical answers.
  Response pf = primary.handle_for_test(query_request());
  ASSERT_TRUE(pf.ok) << pf.error;
  ASSERT_EQ(pf.tier, "L1");
  ASSERT_NE(pf.cache_gen, 0u);
  Response ra = wait_for_generation(*replica_a, pf.cache_gen, 30);
  Response rb = wait_for_generation(*replica_b, pf.cache_gen, 30);
  EXPECT_EQ(ra.cache_gen, pf.cache_gen);
  EXPECT_EQ(rb.cache_gen, pf.cache_gen);
  EXPECT_EQ(ra.record, pf.record);
  EXPECT_EQ(rb.record, pf.record);
  EXPECT_EQ(ra.schedule_fp, pf.schedule_fp);
  EXPECT_EQ(rb.schedule_fp, pf.schedule_fp);

  replica_a->shutdown();
  replica_b->shutdown();
  primary.shutdown();
}

}  // namespace
}  // namespace harl
