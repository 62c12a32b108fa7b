#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/harl.hpp"
#include "io/safe_file.hpp"
#include "serve/knowledge_cache.hpp"
#include "serve/shard_snapshot.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/tenant.hpp"

namespace harl {
namespace {

// ----------------------------------------------------------------- helpers

/// Recursively delete a state directory (one level of shard subdirs).
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

ServerOptions make_server_options(const std::string& state_dir) {
  ServerOptions opts;
  opts.state_dir = state_dir;
  opts.max_concurrent = 1;
  opts.tuning = quick_options(PolicyKind::kHarl);
  return opts;
}

Request tune_request(const std::string& tenant, std::int64_t trials,
                     std::uint64_t seed) {
  Request req;
  req.type = RequestType::kTune;
  req.tenant = tenant;
  req.network = "bert";
  req.hw = "test";
  req.trials = trials;
  req.seed = seed;
  return req;
}

/// Poll `status` until the job leaves the queue/run states.
Response wait_for_job(HarlServer& server, std::int64_t job, int timeout_s) {
  Request req;
  req.type = RequestType::kStatus;
  req.job = job;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(timeout_s);
  for (;;) {
    Response r = server.handle_for_test(req);
    if (!r.ok || r.state == "done" || r.state == "stopped") return r;
    if (std::chrono::steady_clock::now() > deadline) return r;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

// ---------------------------------------------------------------- protocol

TEST(Protocol, RequestRoundTripsEveryField) {
  Request req;
  req.type = RequestType::kTune;
  req.tenant = "alice";
  req.budget = 500;
  req.network = "bert";
  req.task = "GEMM-I";
  req.hw = "test";
  req.trials = 120;
  req.batch = 4;
  req.seed = 7;
  req.policy = "random";
  req.job = 3;
  req.weight = 2.5;

  std::string line = request_to_json(req);
  Request back;
  std::string error;
  ASSERT_TRUE(request_from_json(line, &back, &error)) << error;
  EXPECT_TRUE(req == back) << line;
  // Determinism: equal messages produce equal bytes.
  EXPECT_EQ(line, request_to_json(back));
}

TEST(Protocol, RequestDefaultsStayOffTheWire) {
  Request req;
  req.type = RequestType::kStats;
  EXPECT_EQ(request_to_json(req), "{\"v\":1,\"type\":\"stats\"}");

  Request back;
  std::string error;
  ASSERT_TRUE(request_from_json("{\"v\":1,\"type\":\"stats\"}", &back, &error));
  EXPECT_TRUE(req == back);
}

TEST(Protocol, ResponseRoundTripsEveryField) {
  Response resp;
  resp.ok = true;
  resp.event = "done";
  resp.tier = "L1";
  resp.est_time_ms = 1.5;
  resp.score = 0.25;
  resp.schedule_fp = 18446744073709551615ull;  // uint64 max must survive
  resp.record = "{\"v\":1,\"net\":\"bert_b1\"}";
  resp.serve_us = 12.5;
  resp.job = 9;
  resp.state = "done";
  resp.trials_used = 60;
  resp.latency_ms = 3.5;
  resp.round = 5;
  resp.trials_after = 60;
  resp.net_latency_ms = 4.25;
  resp.task = "GEMM-I";
  resp.queries = 1;
  resp.l1_hits = 1;
  resp.l2_hits = 0;
  resp.l3_hits = 0;
  resp.misses = 0;
  resp.jobs_admitted = 2;
  resp.jobs_rejected = 1;
  resp.jobs_completed = 2;
  resp.jobs_resumed = 1;
  resp.tenants = 3;
  resp.cache_gen = 18446744073709551615ull;  // a fingerprint: full uint64
  resp.role = "replica";
  resp.refreshes = 4;
  resp.invalidations = 2;
  resp.reloads = 3;

  std::string line = response_to_json(resp);
  Response back;
  std::string error;
  ASSERT_TRUE(response_from_json(line, &back, &error)) << error;
  EXPECT_TRUE(resp == back) << line;
  EXPECT_EQ(line, response_to_json(back));
}

TEST(Protocol, MalformedRequestCorpusAllRejected) {
  const char* corpus[] = {
      "",
      "   ",
      "{",
      "not json at all",
      "[]",
      "42",
      "\"a bare string\"",
      "null",
      "{}",                                    // missing type
      "{\"v\":1}",                             // missing type
      "{\"v\":1,\"type\":\"frobnicate\"}",     // unknown type
      "{\"v\":1,\"type\":42}",                 // type not a string
      "{\"v\":\"one\",\"type\":\"query\"}",    // version not a number
      "{\"v\":2,\"type\":\"query\"}",          // newer than the reader
      "{\"v\":4294967297,\"type\":\"query\"}",  // newer, not 1 mod 2^32
      "{\"v\":1,\"type\":\"tune\",\"trials\":\"many\"}",  // wrong field type
      "{\"v\":1,\"type\":\"tune\",\"tenant\":7}",
      "{\"v\":1,\"type\":\"query\",\"seed\":true}",
      "{\"v\":1,\"type\":\"qu",                // truncated mid-string
      "{\"v\":1,\"type\":\"query\"",           // truncated mid-object
      "{\"v\":1,,\"type\":\"query\"}",         // stray comma
      // Fair-queue weight: a number or nothing.
      "{\"v\":1,\"type\":\"hello\",\"tenant\":\"a\",\"weight\":\"heavy\"}",
      "{\"v\":1,\"type\":\"hello\",\"tenant\":\"a\",\"weight\":[2]}",
      "{\"v\":1,\"type\":\"hello\",\"tenant\":\"a\",\"weight\":{\"x\":1}}",
      "{\"v\":1,\"type\":\"hello\",\"tenant\":\"a\",\"weight\":true}",
      "{\"v\":1,\"type\":\"hello\",\"tenant\":\"a\",\"weight\":2.",  // torn
  };
  for (const char* line : corpus) {
    Request out;
    out.tenant = "sentinel";
    std::string error;
    EXPECT_FALSE(request_from_json(line, &out, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
    EXPECT_EQ(out.tenant, "sentinel") << "out mutated by: " << line;
  }
}

TEST(Protocol, MalformedResponseCorpusAllRejected) {
  const char* corpus[] = {
      "",
      "[1,2,3]",
      "{\"v\":3,\"ok\":true}",            // newer version
      "{\"v\":1,\"ok\":\"yes\"}",         // ok not a bool
      "{\"v\":1,\"ok\":true,\"score\":\"high\"}",
      "{\"v\":1,\"ok\":true,\"tier\":1}",
      // Freshness / replica fields: typed like their senders or rejected.
      "{\"v\":1,\"ok\":true,\"cache_gen\":\"new\"}",
      "{\"v\":1,\"ok\":true,\"cache_gen\":{}}",
      "{\"v\":1,\"ok\":true,\"role\":9}",
      "{\"v\":1,\"ok\":true,\"role\":[\"replica\"]}",
      "{\"v\":1,\"ok\":true,\"refreshes\":\"some\"}",
      "{\"v\":1,\"ok\":true,\"invalidations\":false}",
      "{\"v\":1,\"ok\":true,\"reloads\":[1]}",
      "{\"v\":1,\"ok\":true,\"reloads\":\"3\"}",
  };
  for (const char* line : corpus) {
    Response out;
    std::string error;
    EXPECT_FALSE(response_from_json(line, &out, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(Protocol, UnknownFieldsAndMissingVersionAreTolerated) {
  Request req;
  std::string error;
  // Additive evolution: unknown fields from a same-version peer are ignored.
  ASSERT_TRUE(request_from_json(
      "{\"v\":1,\"type\":\"query\",\"network\":\"bert_b1\","
      "\"future_knob\":[1,2,{\"x\":3}]}",
      &req, &error))
      << error;
  EXPECT_EQ(req.network, "bert_b1");
  // A missing "v" means the writer predates versioning: treat as current.
  ASSERT_TRUE(request_from_json("{\"type\":\"stats\"}", &req, &error)) << error;
  EXPECT_EQ(req.version, kProtocolVersion);
}

// ------------------------------------------------------------------ tenant

TEST(Tenant, AdmissionChargesAndEnforcesBudgets) {
  TenantRegistry reg(/*default_budget=*/100);
  std::string reason;
  EXPECT_TRUE(reg.admit("alice", 60, &reason));
  EXPECT_EQ(reg.remaining("alice"), 40);
  EXPECT_FALSE(reg.admit("alice", 50, &reason));  // only 40 left
  EXPECT_FALSE(reason.empty());
  EXPECT_EQ(reg.remaining("alice"), 40);          // nothing charged on reject
  EXPECT_FALSE(reg.admit("alice", 0, &reason));   // non-positive is invalid
  EXPECT_FALSE(reg.admit("alice", -5, &reason));
  EXPECT_TRUE(reg.admit("alice", 40, &reason));   // exactly the remainder
  EXPECT_EQ(reg.remaining("alice"), 0);
}

TEST(Tenant, CompletionRefundsUnusedTrials) {
  TenantRegistry reg(100);
  ASSERT_TRUE(reg.admit("bob", 80));
  // The search saturated after 50 of the 80 admitted trials: refund 30.
  reg.on_job_complete("bob", 80, 50, 1.5);
  EXPECT_EQ(reg.remaining("bob"), 50);
  // trials_used = -1 (recovery path, usage unknown) keeps the full charge.
  ASSERT_TRUE(reg.admit("bob", 20));
  reg.on_job_complete("bob", 20, -1, 0.0);
  EXPECT_EQ(reg.remaining("bob"), 30);
}

TEST(Tenant, HelloCanRaiseButNeverUndercutsCharges) {
  TenantRegistry reg(100);
  ASSERT_TRUE(reg.admit("carol", 90));
  reg.ensure("carol", 40);  // below the 90 already charged: clamp, no debt
  EXPECT_EQ(reg.remaining("carol"), 0);
  reg.ensure("carol", 500);
  EXPECT_EQ(reg.remaining("carol"), 410);
}

TEST(Tenant, PickFavorsHeadroomThenGainAndBreaksTiesByName) {
  TenantRegistry reg(100, /*gradient_alpha=*/0.2);
  // Fresh tenants are identical: the lexicographically smallest name wins.
  EXPECT_EQ(reg.pick({"zeta", "alpha", "mid"}), 1);

  // The forward term favors unspent budget: bravo has more headroom.
  reg.ensure("alpha");
  reg.ensure("bravo");
  ASSERT_TRUE(reg.admit("alpha", 50));
  EXPECT_EQ(reg.pick({"alpha", "bravo"}), 1);

  // With equal headroom, the backward term favors the observed gain rate.
  TenantRegistry reg2(100, 0.2);
  ASSERT_TRUE(reg2.admit("fast", 50));
  ASSERT_TRUE(reg2.admit("slow", 50));
  reg2.on_job_complete("fast", 50, 50, 200.0);  // 4 ms/trial
  reg2.on_job_complete("slow", 50, 50, 10.0);   // 0.2 ms/trial
  EXPECT_EQ(reg2.pick({"slow", "fast"}), 1);
  EXPECT_EQ(reg2.pick({"fast", "slow"}), 0);
}

// ------------------------------------------------------------------ server

TEST(Server, AdmitTuneThenQueryHitsL1WithLogBestRecord) {
  TempDir dir("test_server_l1");
  HarlServer server(make_server_options(dir.path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Request hello;
  hello.type = RequestType::kHello;
  hello.tenant = "alice";
  ASSERT_TRUE(server.handle_for_test(hello).ok);

  Response admitted = server.handle_for_test(tune_request("alice", 60, 41));
  ASSERT_TRUE(admitted.ok) << admitted.error;
  EXPECT_GE(admitted.job, 1);
  EXPECT_EQ(admitted.state, "queued");

  Response done = wait_for_job(server, admitted.job, 120);
  ASSERT_TRUE(done.ok) << done.error;
  ASSERT_EQ(done.state, "done");
  EXPECT_EQ(done.trials_used, 60);

  Request query;
  query.type = RequestType::kQuery;
  query.network = "bert_b1";
  query.task = "GEMM-I";
  query.hw = "test";
  Response served = server.handle_for_test(query);
  ASSERT_TRUE(served.ok) << served.error;
  EXPECT_EQ(served.tier, "L1");
  EXPECT_GE(served.serve_us, 0);
  EXPECT_NE(served.schedule_fp, 0u);

  // The served record must be byte-identical to the best record the shard
  // log holds for this triple — the L1 bit-identity contract over the wire.
  std::string log = dir.path + "/test/bert_b1-job" +
                    std::to_string(admitted.job) + ".jsonl";
  const std::uint64_t hw_fp = HardwareConfig::test_config().fingerprint();
  std::string best;
  double best_time = 0;
  for (const TuningRecord& rec : read_records(log)) {
    ASSERT_EQ(rec.network, "bert_b1");
    if (rec.task != "GEMM-I" || rec.hardware_fp != hw_fp || !(rec.time_ms > 0)) {
      continue;
    }
    std::string line = record_to_json(rec);
    if (best.empty() || rec.time_ms < best_time ||
        (rec.time_ms == best_time && line < best)) {
      best_time = rec.time_ms;
      best = std::move(line);
    }
  }
  ASSERT_FALSE(best.empty());
  EXPECT_EQ(served.record, best);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries, 1);
  EXPECT_EQ(stats.l1_hits, 1);
  EXPECT_EQ(stats.jobs_admitted, 1);
  EXPECT_EQ(stats.jobs_completed, 1);
  server.shutdown();
}

TEST(Server, PerTenantBudgetsGateAdmission) {
  TempDir dir("test_server_budget");
  ServerOptions opts = make_server_options(dir.path);
  opts.default_budget = 100;
  HarlServer server(std::move(opts));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // 150 > the tenant's 100-trial budget: rejected outright.
  Response r = server.handle_for_test(tune_request("dave", 150, 1));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());

  Response a = server.handle_for_test(tune_request("dave", 60, 1));
  ASSERT_TRUE(a.ok) << a.error;
  // 60 more would exceed the 40 left — even while the first job runs.
  Response b = server.handle_for_test(tune_request("dave", 60, 2));
  EXPECT_FALSE(b.ok);

  // A different tenant has its own budget.
  Response c = server.handle_for_test(tune_request("erin", 60, 3));
  EXPECT_TRUE(c.ok) << c.error;

  // hello can raise dave's budget, unblocking the follow-up job.
  Request hello;
  hello.type = RequestType::kHello;
  hello.tenant = "dave";
  hello.budget = 400;
  ASSERT_TRUE(server.handle_for_test(hello).ok);
  Response d = server.handle_for_test(tune_request("dave", 60, 2));
  EXPECT_TRUE(d.ok) << d.error;

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.jobs_rejected, 2);
  EXPECT_EQ(stats.jobs_admitted, 3);
  EXPECT_EQ(stats.tenants, 2);
  server.shutdown();
}

TEST(Server, RejectsInvalidRequests) {
  TempDir dir("test_server_invalid");
  HarlServer server(make_server_options(dir.path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Request bad_net = tune_request("t", 50, 1);
  bad_net.network = "alexnet";  // not a builtin workload
  EXPECT_FALSE(server.handle_for_test(bad_net).ok);

  Request bad_hw = tune_request("t", 50, 1);
  bad_hw.hw = "quantum";
  EXPECT_FALSE(server.handle_for_test(bad_hw).ok);

  Request bad_policy = tune_request("t", 50, 1);
  bad_policy.policy = "oracle";
  EXPECT_FALSE(server.handle_for_test(bad_policy).ok);

  Request bad_batch = tune_request("t", 50, 1);
  bad_batch.batch = 0;
  EXPECT_FALSE(server.handle_for_test(bad_batch).ok);
  bad_batch.batch = kMaxBatch + 1;  // would build a network make_network refuses
  Response over = server.handle_for_test(bad_batch);
  EXPECT_FALSE(over.ok);
  EXPECT_EQ(over.error, "batch must be between 1 and " + std::to_string(kMaxBatch));

  Request too_big = tune_request("t", 20000, 1);  // above max_job_trials
  EXPECT_FALSE(server.handle_for_test(too_big).ok);

  Request no_task;
  no_task.type = RequestType::kQuery;
  no_task.network = "bert_b1";
  EXPECT_FALSE(server.handle_for_test(no_task).ok);

  Request ghost;
  ghost.type = RequestType::kStatus;
  ghost.job = 99;
  EXPECT_FALSE(server.handle_for_test(ghost).ok);

  EXPECT_EQ(server.stats().jobs_admitted, 0);
  server.shutdown();
}

TEST(Server, RecoverySkipsJournaledJobsWithAnOutOfRangeBatch) {
  // A journal written by hand (or by an older daemon) may hold a batch that
  // make_network refuses; recovery drops such a job instead of aborting on
  // it when it would be dispatched.
  TempDir dir("test_server_journal_batch");
  ASSERT_EQ(mkdir(dir.path.c_str(), 0755), 0);
  const std::string line = R"({"v":1,"ev":"job","job":1,"tenant":"t","network":"bert",)"
                           R"("batch":)" + std::to_string(kMaxBatch + 1) +
                           R"(,"hw":"test","trials":20,"seed":1})" + "\n" +
                           R"({"v":1,"ev":"job","job":2,"tenant":"t","network":"bert",)"
                           R"("batch":9223372036854775807,"hw":"test","trials":20,"seed":1})" +
                           "\n";
  std::string error;
  ASSERT_TRUE(atomic_write_file(dir.path + "/jobs.jsonl", line, false, &error)) << error;
  HarlServer server(make_server_options(dir.path));
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_EQ(server.stats().jobs_admitted, 0);
  EXPECT_EQ(server.stats().jobs_resumed, 0);
  Request status;
  status.type = RequestType::kStatus;
  status.job = 1;
  EXPECT_FALSE(server.handle_for_test(status).ok);
  server.shutdown();
}

TEST(Server, RecoverySkipsJournaledJobsWithAnUnknownPolicy) {
  // A journaled job naming a policy this build does not register is dropped
  // with a warning; dispatching it would abort the daemon on every restart.
  // The lines around it still replay.
  TempDir dir("test_server_journal_policy");
  ASSERT_EQ(mkdir(dir.path.c_str(), 0755), 0);
  const std::string journal =
      R"({"v":1,"ev":"job","job":1,"tenant":"t","network":"bert","batch":1,)"
      R"("hw":"test","trials":10,"seed":42,"policy":"nope"})" "\n"
      R"({"v":1,"ev":"job","job":2,"tenant":"t","network":"bert","batch":1,)"
      R"("hw":"test","trials":10,"seed":42,"policy":"Ansor"})" "\n"
      R"({"v":1,"ev":"done","job":2})" "\n";
  std::string error;
  ASSERT_TRUE(atomic_write_file(dir.path + "/jobs.jsonl", journal, false, &error)) << error;
  HarlServer server(make_server_options(dir.path));
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_EQ(server.stats().jobs_admitted, 1);
  EXPECT_EQ(server.stats().jobs_completed, 1);
  EXPECT_EQ(server.stats().jobs_resumed, 0);
  Request status;
  status.type = RequestType::kStatus;
  status.job = 1;
  EXPECT_FALSE(server.handle_for_test(status).ok);
  status.job = 2;
  EXPECT_EQ(server.handle_for_test(status).state, "done");
  server.shutdown();
}

TEST(Server, RecoverySkipsJournaledJobsWithMistypedMembers) {
  // Each job line below has one member of a kind its writer never uses; a
  // string member given a number is not read as its digits ("tenant":7 is
  // not tenant "7").  Every such job is dropped with a warning.
  TempDir dir("test_server_journal_kinds");
  ASSERT_EQ(mkdir(dir.path.c_str(), 0755), 0);
  const char* const kMistyped[] = {
      R"("tenant":7)", R"("network":["bert"])", R"("hw":3)", R"("policy":1)",
      R"("batch":"1")", R"("trials":"10")", R"("seed":true)", R"("job":"9")"};
  std::string journal;
  int id = 1;
  for (const char* member : kMistyped) {
    journal += R"({"v":1,"ev":"job","job":)" + std::to_string(id++) +
               R"(,"tenant":"t","network":"bert","batch":1,"hw":"test",)"
               R"("trials":10,"seed":42,)" + std::string(member) + "}\n";
  }
  std::string error;
  ASSERT_TRUE(atomic_write_file(dir.path + "/jobs.jsonl", journal, false, &error)) << error;
  HarlServer server(make_server_options(dir.path));
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_EQ(server.stats().jobs_admitted, 0);
  EXPECT_EQ(server.stats().jobs_resumed, 0);
  server.shutdown();
}

TEST(Server, RecoveryAppliesEachJournaledJobAndCompletionOnce) {
  // Lines no daemon writes, but a damaged or hand-edited journal may hold:
  // an id with no successor (the next admission's id would overflow), a
  // repeated id, a repeated done marker, charges whose sum overflows, and a
  // newer version.  Replay applies each job and each completion once and
  // keeps admitting after the largest id it kept.
  TempDir dir("test_server_journal_replay");
  ASSERT_EQ(mkdir(dir.path.c_str(), 0755), 0);
  auto job_line = [](const std::string& id, const std::string& trials) {
    return R"({"v":1,"ev":"job","job":)" + id +
           R"(,"tenant":"t","network":"bert","batch":1,"hw":"test","trials":)" +
           trials + R"(,"seed":1})" "\n";
  };
  const std::string kMax = "9223372036854775807";
  const std::string journal =
      job_line(kMax, "10") + job_line("5", kMax) + job_line("6", kMax) +
      job_line("5", "10") +
      R"({"v":1,"ev":"done","job":5})" "\n"
      R"({"v":1,"ev":"done","job":5})" "\n"
      R"({"v":1,"ev":"done","job":6})" "\n"
      R"({"v":2,"ev":"done","job":7})" "\n";
  std::string error;
  ASSERT_TRUE(atomic_write_file(dir.path + "/jobs.jsonl", journal, false, &error)) << error;
  HarlServer server(make_server_options(dir.path));
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_EQ(server.stats().jobs_admitted, 2);
  EXPECT_EQ(server.stats().jobs_completed, 2);
  EXPECT_EQ(server.stats().jobs_resumed, 0);
  Response admitted = server.handle_for_test(tune_request("u", 10, 1));
  ASSERT_TRUE(admitted.ok) << admitted.error;
  EXPECT_EQ(admitted.job, 7);
  server.shutdown();
}

TEST(Server, JournalBytesAreUnchanged) {
  // The journal lines of a hello, a tune and its completion, byte for byte:
  // a restarted daemon of any later build must read what this one wrote.
  TempDir dir("test_server_journal_bytes");
  {
    HarlServer server(make_server_options(dir.path));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    Request hello;
    hello.type = RequestType::kHello;
    hello.tenant = "al\"ice";
    hello.budget = 5000;
    hello.weight = 2.5;
    ASSERT_TRUE(server.handle_for_test(hello).ok);
    Request tune = tune_request("al\"ice", 40, 18446744073709551615ULL);
    tune.policy = "Ansor";
    tune.batch = 2;
    Response admitted = server.handle_for_test(tune);
    ASSERT_TRUE(admitted.ok) << admitted.error;
    ASSERT_EQ(wait_for_job(server, admitted.job, 120).state, "done");
    server.shutdown();
  }
  std::string journal;
  ASSERT_TRUE(read_text_file(dir.path + "/jobs.jsonl", &journal, nullptr));
  EXPECT_EQ(journal,
            "{\"v\":1,\"ev\":\"tenant\",\"tenant\":\"al\\\"ice\",\"budget\":5000,"
            "\"weight\":2.5}\n"
            "{\"v\":1,\"ev\":\"job\",\"job\":1,\"tenant\":\"al\\\"ice\","
            "\"network\":\"bert\",\"batch\":2,\"hw\":\"test\",\"trials\":40,"
            "\"seed\":18446744073709551615,\"policy\":\"Ansor\"}\n"
            "{\"v\":1,\"ev\":\"done\",\"job\":1}\n");
}

TEST(Server, HardwareNamesAndTheirErrorReplyAreUnchanged) {
  TempDir dir("test_server_hw_names");
  HarlServer server(make_server_options(dir.path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  LineClient cli;
  ASSERT_TRUE(cli.connect("127.0.0.1", server.port(), &error)) << error;
  auto round_trip = [&](const std::string& line) {
    std::string reply;
    EXPECT_TRUE(cli.send_line(line, &error)) << error;
    EXPECT_TRUE(cli.recv_line(&reply, &error)) << error;
    return reply;
  };

  // "cpu" was only ever a tuning-CLI spelling: the daemon rejects it with
  // the same bytes as before, for a query and for a tune.
  const std::string rejected =
      "{\"v\":1,\"ok\":false,\"error\":\"unknown hw preset \\\"cpu\\\" "
      "(xeon, rtx3090, test)\"}";
  EXPECT_EQ(round_trip("{\"v\":1,\"type\":\"query\",\"network\":\"bert_b1\","
                       "\"task\":\"GEMM-I\",\"hw\":\"cpu\"}"),
            rejected);
  EXPECT_EQ(round_trip("{\"v\":1,\"type\":\"tune\",\"network\":\"bert\","
                       "\"hw\":\"cpu\",\"trials\":10}"),
            rejected);

  // Every accepted spelling, and no hw at all (xeon), is served.
  for (const char* hw : {"", "xeon", "xeon_6226r", "rtx3090", "gpu", "test"}) {
    Request query;
    query.type = RequestType::kQuery;
    query.network = "bert_b1";
    query.task = "GEMM-I";
    query.hw = hw;
    Response resp = server.handle_for_test(query);
    EXPECT_TRUE(resp.ok) << hw << ": " << resp.error;
    EXPECT_EQ(resp.tier, "L3") << hw;
  }
  // ... from one shard per preset, named by its canonical name.
  struct stat st{};
  for (const char* shard : {"xeon", "rtx3090", "test"}) {
    EXPECT_EQ(::stat((dir.path + "/" + shard).c_str(), &st), 0) << shard;
  }
  for (const char* alias : {"xeon_6226r", "gpu", "cpu"}) {
    EXPECT_NE(::stat((dir.path + "/" + alias).c_str(), &st), 0) << alias;
  }
  server.shutdown();
}

TEST(Server, NamedPolicyJobKeepsTheBaseTaskSelection) {
  // A job that names a policy swaps the per-subgraph policy only; subgraph
  // selection stays the daemon's base rule (sw-ucb under quick_options
  // (kHarl)), not the named policy's own default (Ansor: greedy-gradient).
  auto job_log = [](const std::string& state_dir, const SearchOptions& base,
                    const std::string& policy) {
    ServerOptions opts = make_server_options(state_dir);
    opts.tuning = base;
    HarlServer server(opts);
    std::string error, log;
    EXPECT_TRUE(server.start(&error)) << error;
    Request req = tune_request("pat", 200, 41);  // warmup is 100 trials
    req.policy = policy;
    Response admitted = server.handle_for_test(req);
    EXPECT_TRUE(admitted.ok) << admitted.error;
    EXPECT_EQ(wait_for_job(server, admitted.job, 120).state, "done");
    server.shutdown();
    EXPECT_TRUE(read_text_file(state_dir + "/test/bert_b1-job1.jsonl", &log, nullptr));
    return log;
  };
  TempDir named_dir("test_server_named_policy");
  TempDir preset_dir("test_server_preset_policy");
  SearchOptions ansor_on_sw_ucb = quick_options(PolicyKind::kAnsor);
  ansor_on_sw_ucb.task_select_name = "sw-ucb";
  std::string named = job_log(named_dir.path, quick_options(PolicyKind::kHarl), "Ansor");
  ASSERT_FALSE(named.empty());
  EXPECT_EQ(named, job_log(preset_dir.path, ansor_on_sw_ucb, ""));
}

/// Cache bytes of the shard in `dir` hydrated as a restart does, and as a
/// full replay of its logs; a restart from the snapshot must match.
void expect_snapshot_restart_matches_replay(const std::string& dir) {
  KnowledgeCache hydrated;
  const ShardHydration h = hydrate_shard(dir, &hydrated);
  EXPECT_TRUE(h.restored) << dir;
  KnowledgeCache replayed;
  for (const std::string& log : jsonl_files(dir)) replayed.insert_log(log);
  EXPECT_EQ(cache_to_json(hydrated), cache_to_json(replayed)) << dir;
}

TEST(Server, DrainCheckpointsAndRestartResumesBitIdentically) {
  TempDir victim_dir("test_server_victim");
  TempDir ref_dir("test_server_reference");
  const std::int64_t kTrials = 400;
  const std::uint64_t kSeed = 7;
  const std::int64_t kDrainRound = 3;  // drain once this many rounds ran

  // Victim: admit the job, follow its progress stream, and drain on its Nth
  // round event, so the drain lands mid-run however slow the build is.
  std::string victim_log;
  {
    HarlServer server(make_server_options(victim_dir.path));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    Response admitted =
        server.handle_for_test(tune_request("frank", kTrials, kSeed));
    ASSERT_TRUE(admitted.ok) << admitted.error;
    victim_log = victim_dir.path + "/test/bert_b1-job" +
                 std::to_string(admitted.job) + ".jsonl";
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;
    Request subscribe;
    subscribe.type = RequestType::kSubscribe;
    subscribe.job = admitted.job;
    ASSERT_TRUE(client.send_line(request_to_json(subscribe), &error)) << error;
    Response ev;
    std::string line;
    do {
      ASSERT_TRUE(client.recv_line(&line, &error, 300000)) << error;
      ASSERT_TRUE(response_from_json(line, &ev, &error)) << error;
      ASSERT_NE(ev.event, "done") << "the job finished before the drain";
    } while (!(ev.event == "round" && ev.round + 1 >= kDrainRound));
    EXPECT_LT(ev.trials_after, kTrials);
    client.close();
    server.request_shutdown();  // what the SIGTERM handler does
    server.shutdown();
  }

  // The checkpoint must be a clean prefix: whole rounds only, no done marker.
  std::vector<TuningRecord> partial = read_records(victim_log);
  ASSERT_GT(partial.size(), 0u);
  ASSERT_LT(partial.size(), static_cast<std::size_t>(kTrials));
  std::string journal;
  ASSERT_TRUE(read_text_file(victim_dir.path + "/jobs.jsonl", &journal, nullptr));
  EXPECT_EQ(journal.find("\"ev\":\"done\""), std::string::npos);
  // The drain snapshotted the shard, and a restart from it is a replay.
  expect_snapshot_restart_matches_replay(victim_dir.path + "/test");

  // Restart over the same state dir: the journal re-admits the job and the
  // fleet resumes it from the salvaged log.
  {
    HarlServer server(make_server_options(victim_dir.path));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    EXPECT_EQ(server.stats().jobs_resumed, 1);
    Response done = wait_for_job(server, 1, 300);
    ASSERT_TRUE(done.ok) << done.error;
    ASSERT_EQ(done.state, "done");

    Request query;
    query.type = RequestType::kQuery;
    query.network = "bert_b1";
    query.task = "GEMM-I";
    query.hw = "test";
    Response served = server.handle_for_test(query);
    ASSERT_TRUE(served.ok) << served.error;
    EXPECT_EQ(served.tier, "L1");
    server.shutdown();
  }
  expect_snapshot_restart_matches_replay(victim_dir.path + "/test");

  // Reference: the same request uninterrupted in a fresh state dir.
  {
    HarlServer server(make_server_options(ref_dir.path));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    Response admitted =
        server.handle_for_test(tune_request("frank", kTrials, kSeed));
    ASSERT_TRUE(admitted.ok) << admitted.error;
    Response done = wait_for_job(server, admitted.job, 300);
    ASSERT_EQ(done.state, "done");
    server.shutdown();
  }

  std::string victim, reference;
  ASSERT_TRUE(read_text_file(victim_log, &victim, nullptr));
  ASSERT_TRUE(read_text_file(ref_dir.path + "/test/bert_b1-job1.jsonl",
                             &reference, nullptr));
  EXPECT_EQ(victim, reference)
      << "kill-and-restart must replay to the exact uninterrupted log";
  // The resumed daemon, hydrated from the drain snapshot, published the
  // cache the uninterrupted one did.
  ASSERT_TRUE(read_text_file(victim_dir.path + "/test/knowledge.cache.json",
                             &victim, nullptr));
  ASSERT_TRUE(read_text_file(ref_dir.path + "/test/knowledge.cache.json",
                             &reference, nullptr));
  EXPECT_EQ(victim, reference);
}

TEST(Server, CleanShutdownRemovesOnlyItsOwnPortFile) {
  TempDir dir("test_server_port_file");
  const std::string port_file = dir.path + "/port";
  std::string error;
  std::string text;
  struct stat st{};
  {
    HarlServer server(make_server_options(dir.path));
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_TRUE(read_text_file(port_file, &text, &error)) << error;
    EXPECT_EQ(text, std::to_string(server.port()) + "\n");
    server.shutdown();
    EXPECT_NE(::stat(port_file.c_str(), &st), 0) << "stale port file survived shutdown";
  }
  // A port file another daemon has since rewritten names a live port: the
  // shutdown leaves it alone.
  {
    HarlServer server(make_server_options(dir.path));
    ASSERT_TRUE(server.start(&error)) << error;
    const std::string other = std::to_string(server.port() + 1) + "\n";
    ASSERT_TRUE(atomic_write_file(port_file, other, false, &error)) << error;
    server.shutdown();
    ASSERT_TRUE(read_text_file(port_file, &text, &error)) << error;
    EXPECT_EQ(text, other);
  }
}

TEST(Server, SubscribeToFinishedJobYieldsImmediateDoneEvent) {
  TempDir dir("test_server_subscribe");
  HarlServer server(make_server_options(dir.path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  Response admitted = server.handle_for_test(tune_request("gina", 40, 5));
  ASSERT_TRUE(admitted.ok) << admitted.error;
  Response done = wait_for_job(server, admitted.job, 120);
  ASSERT_EQ(done.state, "done");

  LineClient cli;
  ASSERT_TRUE(cli.connect("127.0.0.1", server.port(), &error)) << error;
  Request sub;
  sub.type = RequestType::kSubscribe;
  sub.job = admitted.job;
  ASSERT_TRUE(cli.send_line(request_to_json(sub), &error)) << error;
  std::string line;
  ASSERT_TRUE(cli.recv_line(&line, &error)) << error;
  Response ev;
  ASSERT_TRUE(response_from_json(line, &ev, &error)) << error;
  EXPECT_EQ(ev.event, "done");
  EXPECT_EQ(ev.state, "done");
  EXPECT_EQ(ev.job, admitted.job);
  server.shutdown();
}

TEST(Server, SurvivesConcurrentAndMalformedClients) {
  TempDir dir("test_server_fuzz");
  HarlServer server(make_server_options(dir.path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_GT(server.port(), 0);
  const int port = server.port();

  const char* junk[] = {
      "garbage in",
      "{\"v\":9,\"type\":\"query\"}",
      "{}",
      "{\"v\":1,\"type\":\"status\",\"job\":12345}",
      "{\"v\":1,\"type\":\"query\",\"network\":\"bert_b1\","
      "\"task\":\"GEMM-I\",\"hw\":\"test\"}",
      "[]",
      "{\"v\":1,\"type\":\"stats\"}",
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([port, t, &junk, &failures] {
      LineClient cli;
      std::string err;
      if (!cli.connect("127.0.0.1", port, &err)) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 30; ++i) {
        const char* line = junk[(t + i) % (sizeof(junk) / sizeof(junk[0]))];
        std::string reply;
        Response resp;
        // Every line — valid or junk — must yield exactly one parseable
        // reply; junk gets ok=false, never a dropped connection.
        if (!cli.send_line(line, &err) || !cli.recv_line(&reply, &err) ||
            !response_from_json(reply, &resp, &err)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The server is still fully functional afterwards.
  Request query;
  query.type = RequestType::kQuery;
  query.network = "bert_b1";
  query.task = "GEMM-I";
  query.hw = "test";
  Response served = server.handle_for_test(query);
  EXPECT_TRUE(served.ok) << served.error;
  server.shutdown();
}

/// The process's virtual size in KiB (VmSize of /proc/self/status).
long vm_size_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmSize: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

TEST(Server, ClosedConnectionsAreReaped) {
  // Every connection runs on its own thread; a finished thread keeps its
  // stack mapped until joined, so a daemon that never joins closed
  // connections grows by a stack (8 MiB by default) per client served.
  TempDir dir("test_server_reap");
  HarlServer server(make_server_options(dir.path));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto serve_stats_connections = [&](int n) {
    for (int i = 0; i < n; ++i) {
      LineClient cli;
      std::string err, reply;
      ASSERT_TRUE(cli.connect("127.0.0.1", server.port(), &err)) << err;
      ASSERT_TRUE(cli.send_line("{\"v\":1,\"type\":\"stats\"}", &err)) << err;
      ASSERT_TRUE(cli.recv_line(&reply, &err)) << err;
    }
  };
  serve_stats_connections(16);  // warm-up: thread-stack cache, allocator
  long before = vm_size_kib();
  ASSERT_GT(before, 0);
  serve_stats_connections(64);
  long growth_kib = vm_size_kib() - before;
  EXPECT_LT(growth_kib, 16 * 1024) << "VmSize grew " << growth_kib << " KiB";
  server.shutdown();
}

// A valid synthetic record of `graph` on `hw` (mirrors the knowledge-cache
// test helper): a random schedule of a generated sketch with provenance.
TuningRecord synth_record(const Subgraph& graph,
                          const std::vector<Sketch>& sketches,
                          const HardwareConfig& hw, const std::string& network,
                          double time_ms, std::uint64_t seed) {
  Rng rng(seed);
  const Sketch& sk = sketches[rng.pick_index(sketches.size())];
  Schedule s = random_schedule(sk, hw.num_unroll_options(), rng);
  TuningRecord rec;
  rec.network = network;
  rec.task = graph.name();
  rec.task_index = 0;
  rec.hardware_fp = hw.fingerprint();
  rec.policy = "test";
  rec.seed = seed;
  rec.sketch_id = sk.sketch_id;
  rec.sketch_tag = sk.tag;
  rec.stages = decisions_from_schedule(s);
  rec.time_ms = time_ms;
  rec.trial_index = static_cast<std::int64_t>(seed);
  rec.task_sig = graph.structure_signature();
  rec.hw_sim = hw.similarity_vector();
  return rec;
}

TEST(Server, QueryRacingRepublishIsNeverTorn) {
  // A writer republishes ever-better bests while readers reload and serve:
  // every answer must be byte-identical to one of the published bests —
  // old-best or new-best, never a torn or invented record.  This is the
  // file-level contract replicas rely on (CRC footer + atomic rename).
  TempDir dir("test_server_invalidation_race");
  ASSERT_EQ(::mkdir(dir.path.c_str(), 0755), 0);
  const std::string path = dir.path + "/knowledge.cache.json";
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 64, 64);
  std::vector<Sketch> sketches = generate_sketches(g);

  constexpr int kGenerations = 40;
  // Pre-compute the per-generation bests so readers can check membership.
  std::vector<std::string> best_bytes;
  {
    KnowledgeCache proto;
    for (int i = 0; i < kGenerations; ++i) {
      TuningRecord rec = synth_record(g, sketches, hw, "race_net",
                                      /*time_ms=*/kGenerations - i,
                                      /*seed=*/static_cast<std::uint64_t>(i));
      bool displaced = false;
      ASSERT_TRUE(proto.insert(rec, &displaced));
      EXPECT_EQ(displaced, i > 0);  // each insert beats the previous best
      best_bytes.push_back(record_to_json(rec));
    }
    EXPECT_EQ(proto.stats().invalidations,
              static_cast<std::size_t>(kGenerations - 1));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<std::int64_t> served{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        KnowledgeCache snap;
        std::string err;
        if (!load_cache(path, &snap, &err)) continue;  // not yet published
        ServeResult res = snap.serve("race_net", g, hw);
        if (res.tier != ServeTier::kL1) continue;  // golden advice pre-publish
        std::string bytes = record_to_json(res.record);
        if (std::find(best_bytes.begin(), best_bytes.end(), bytes) ==
            best_bytes.end()) {
          torn.fetch_add(1);
        }
        served.fetch_add(1);
      }
    });
  }

  KnowledgeCache cache;
  for (int i = 0; i < kGenerations; ++i) {
    TuningRecord rec = synth_record(g, sketches, hw, "race_net",
                                    kGenerations - i,
                                    static_cast<std::uint64_t>(i));
    ASSERT_TRUE(cache.insert(rec));
    std::string err;
    ASSERT_TRUE(publish_cache(cache, path, &err)) << err;
  }
  // Let the readers chew on the final generation too.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(served.load(), 0);

  // Post-race: the file serves exactly the final best, bit-identically.
  KnowledgeCache last;
  std::string err;
  ASSERT_TRUE(load_cache(path, &last, &err)) << err;
  ServeResult res = last.serve("race_net", g, hw);
  ASSERT_EQ(res.tier, ServeTier::kL1);
  EXPECT_EQ(record_to_json(res.record), best_bytes.back());
}

}  // namespace
}  // namespace harl
