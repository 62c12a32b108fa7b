// Shard hydration: a snapshot plus the log tails must give the cache bytes a
// full replay of the shard's logs gives, whatever happened to the shard
// directory since the snapshot was taken.  Each scenario also pins whether
// the snapshot was used, so a scenario cannot pass by falling back to a
// replay it was meant to avoid (or by trusting a snapshot it must reject).

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/presets.hpp"
#include "io/record_io.hpp"
#include "io/safe_file.hpp"
#include "serve/knowledge_cache.hpp"
#include "serve/shard_snapshot.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"
#include "workloads/networks.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

/// Recursively delete a directory tree.
void remove_tree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
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
  explicit TempDir(std::string p) : path(std::move(p)) {
    remove_tree(path);
    ::mkdir(path.c_str(), 0755);
  }
  ~TempDir() { remove_tree(path); }
  std::string path;
};

/// Records of two tasks on two networks and two machines, with time ties,
/// exact duplicates, and failed or timeless records, as tuning logs hold.
std::vector<TuningRecord> shard_records(std::uint64_t seed, int n) {
  static const Subgraph g1 = make_gemm(64, 64, 64, 1, "snap_gemm");
  static const Subgraph g2 = make_conv2d(1, 14, 14, 16, 32, 3, 1, 1, "snap_conv");
  static const std::vector<Sketch> s1 = generate_sketches(g1);
  static const std::vector<Sketch> s2 = generate_sketches(g2);
  const HardwareConfig hws[] = {HardwareConfig::test_config(),
                                HardwareConfig::xeon_6226r()};
  Rng rng(seed);
  std::vector<TuningRecord> out;
  for (int i = 0; i < n; ++i) {
    if (!out.empty() && rng.next_double() < 0.1) {
      out.push_back(out[rng.pick_index(out.size())]);
      continue;
    }
    const bool first = rng.next_bool();
    const Subgraph& g = first ? g1 : g2;
    const std::vector<Sketch>& sketches = first ? s1 : s2;
    const HardwareConfig& hw = hws[rng.next_below(2)];
    const Sketch& sk = sketches[rng.pick_index(sketches.size())];
    TuningRecord rec;
    rec.network = rng.next_bool() ? "netA" : "netB";
    rec.task = g.name();
    rec.hardware_fp = hw.fingerprint();
    rec.policy = "test";
    rec.seed = seed;
    rec.sketch_id = sk.sketch_id;
    rec.sketch_tag = sk.tag;
    rec.stages = decisions_from_schedule(
        random_schedule(sk, hw.num_unroll_options(), rng));
    rec.time_ms = 1.0 + 0.25 * static_cast<double>(rng.next_below(12));
    rec.trial_index = i;
    const double kind = rng.next_double();
    if (kind < 0.05) rec.fail = "timeout";
    else if (kind < 0.08) rec.time_ms = 0;
    out.push_back(std::move(rec));
  }
  return out;
}

void write_log(const std::string& path, const std::vector<TuningRecord>& recs,
               bool append) {
  RecordWriter writer;
  ASSERT_TRUE(writer.open(path, append));
  for (const TuningRecord& r : recs) ASSERT_TRUE(writer.write(r));
}

void append_bytes(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

std::string replay_bytes(const std::string& dir, const KnowledgeCacheOptions& opts) {
  KnowledgeCache cache(opts);
  for (const std::string& log : jsonl_files(dir)) cache.insert_log(log);
  return cache_to_json(cache);
}

/// Hydrates `dir` as a restarted daemon does and expects the bytes of a full
/// replay.  Returns whether the snapshot was used.
bool restart_matches_replay(const std::string& dir, const KnowledgeCacheOptions& opts,
                            const std::string& what) {
  KnowledgeCache cache(opts);
  const ShardHydration h = hydrate_shard(dir, &cache);
  EXPECT_EQ(cache_to_json(cache), replay_bytes(dir, opts)) << what;
  EXPECT_EQ(cache.generation(), 0u) << what;  // as after a replay
  return h.restored;
}

std::uint64_t inode_of(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_ino) : 0;
}

/// A shard with two logs and a snapshot over both.
void prepare_shard(const std::string& dir, const KnowledgeCacheOptions& opts,
                   std::uint64_t seed) {
  write_log(dir + "/a.jsonl", shard_records(seed, 60), false);
  write_log(dir + "/b.jsonl", shard_records(seed + 1, 40), false);
  ASSERT_TRUE(snapshot_shard(dir, opts));
}

TEST(ShardSnapshot, RestartEqualsReplayAfterEveryShardChange) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    KnowledgeCacheOptions opts;
    opts.top_k = 1 + static_cast<int>(seed % 3);
    const std::string tag = " (seed " + std::to_string(seed) + ")";
    auto scenario = [&](const std::string& name) {
      return "test_snapshot_" + name + "_" + std::to_string(seed);
    };
    {
      TempDir dir(scenario("clean"));
      prepare_shard(dir.path, opts, seed);
      KnowledgeCache cache(opts);
      const ShardHydration h = hydrate_shard(dir.path, &cache);
      EXPECT_TRUE(h.restored) << tag;
      EXPECT_TRUE(h.current) << tag;  // no tails to replay
      EXPECT_EQ(h.coverage.size(), 2u) << tag;
      EXPECT_TRUE(restart_matches_replay(dir.path, opts, "clean shutdown" + tag));
    }
    {
      // A kill leaves the old snapshot: tails appended since, the last one
      // torn, then completed on a fresh line by the next writer.
      TempDir dir(scenario("stale"));
      prepare_shard(dir.path, opts, seed);
      write_log(dir.path + "/a.jsonl", shard_records(seed + 10, 30), true);
      const std::string line = record_to_json(shard_records(seed + 11, 1)[0]);
      append_bytes(dir.path + "/b.jsonl", line.substr(0, line.size() / 2));
      EXPECT_TRUE(restart_matches_replay(dir.path, opts, "stale snapshot" + tag));
      write_log(dir.path + "/b.jsonl", shard_records(seed + 12, 5), true);
      EXPECT_TRUE(restart_matches_replay(dir.path, opts, "completed tail" + tag));
    }
    {
      // Salvage keeps the prefix before a corrupt line and rewrites the log
      // through a new inode; the snapshot covered the records after it.
      TempDir dir(scenario("salvaged"));
      write_log(dir.path + "/a.jsonl", shard_records(seed, 30), false);
      append_bytes(dir.path + "/a.jsonl", "{\"v\":1,\"net\"\n");
      write_log(dir.path + "/a.jsonl", shard_records(seed + 20, 30), true);
      write_log(dir.path + "/b.jsonl", shard_records(seed + 1, 40), false);
      ASSERT_TRUE(snapshot_shard(dir.path, opts));
      ASSERT_TRUE(salvage_log(dir.path + "/a.jsonl").salvaged);
      EXPECT_FALSE(restart_matches_replay(dir.path, opts, "salvaged log" + tag));
    }
    {
      TempDir dir(scenario("deleted"));
      prepare_shard(dir.path, opts, seed);
      std::remove((dir.path + "/b.jsonl").c_str());
      EXPECT_FALSE(restart_matches_replay(dir.path, opts, "deleted log" + tag));
    }
    {
      // Truncated and rewritten in place: same inode, at least as long.
      TempDir dir(scenario("rewritten"));
      prepare_shard(dir.path, opts, seed);
      write_log(dir.path + "/a.jsonl", shard_records(seed + 30, 90), false);
      EXPECT_FALSE(restart_matches_replay(dir.path, opts, "rewritten log" + tag));
    }
    {
      TempDir dir(scenario("added"));
      prepare_shard(dir.path, opts, seed);
      write_log(dir.path + "/c.jsonl", shard_records(seed + 40, 30), false);
      EXPECT_TRUE(restart_matches_replay(dir.path, opts, "added log" + tag));
    }
    {
      TempDir dir(scenario("corrupt"));
      prepare_shard(dir.path, opts, seed);
      const std::string snap = dir.path + "/" + kShardSnapshotFile;
      std::string text;
      ASSERT_TRUE(read_text_file(snap, &text, nullptr));
      text[text.size() / 2] ^= 0x20;
      ASSERT_TRUE(atomic_write_file(snap, text, false, nullptr));
      EXPECT_FALSE(restart_matches_replay(dir.path, opts, "corrupt snapshot" + tag));
      ASSERT_TRUE(atomic_write_file(snap, text.substr(0, text.size() / 3), false,
                                    nullptr));
      EXPECT_FALSE(restart_matches_replay(dir.path, opts, "torn snapshot" + tag));
    }
    {
      // Options are part of the snapshot: a daemon restarted with other
      // knobs must not inherit the old ones.
      TempDir dir(scenario("options"));
      prepare_shard(dir.path, opts, seed);
      KnowledgeCacheOptions no_golden = opts;
      no_golden.golden_advice = false;
      KnowledgeCacheOptions wider = opts;
      wider.top_k = opts.top_k + 1;
      for (const KnowledgeCacheOptions& other : {no_golden, wider}) {
        EXPECT_FALSE(restart_matches_replay(dir.path, other, "options" + tag));
        KnowledgeCache cache(other);
        hydrate_shard(dir.path, &cache);
        EXPECT_EQ(cache.options().golden_advice, other.golden_advice) << tag;
        EXPECT_EQ(cache.options().top_k, other.top_k) << tag;
      }
      EXPECT_TRUE(restart_matches_replay(dir.path, opts, "same options" + tag));
    }
  }
}

TEST(ShardSnapshot, WritesOnlyWhenCoverageMoves) {
  TempDir dir("test_snapshot_rewrite");
  KnowledgeCacheOptions opts;
  prepare_shard(dir.path, opts, 7);
  const std::string snap = dir.path + "/" + kShardSnapshotFile;
  const std::uint64_t first = inode_of(snap);
  ASSERT_NE(first, 0u);
  ASSERT_TRUE(snapshot_shard(dir.path, opts));
  EXPECT_EQ(inode_of(snap), first);  // unchanged coverage: no write

  write_log(dir.path + "/a.jsonl", shard_records(8, 10), true);
  ASSERT_TRUE(snapshot_shard(dir.path, opts));
  EXPECT_NE(inode_of(snap), first);
  KnowledgeCache cache(opts);
  const ShardHydration h = hydrate_shard(dir.path, &cache);
  EXPECT_TRUE(h.restored);
  EXPECT_TRUE(h.current);  // the new snapshot covers the tail
  EXPECT_EQ(cache_to_json(cache), replay_bytes(dir.path, opts));
  // A restored snapshot starts the counters at zero: no tail, no inserts.
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(cache.stats().invalidations, 0u);

  // The snapshot is never mistaken for a log, nor are salvage leftovers.
  write_log(dir.path + "/x.jsonl.quarantine", shard_records(9, 3), false);
  const std::vector<std::string> logs = jsonl_files(dir.path);
  ASSERT_EQ(logs.size(), 2u);
  EXPECT_EQ(logs[0], dir.path + "/a.jsonl");
  EXPECT_EQ(logs[1], dir.path + "/b.jsonl");
  std::string error;
  EXPECT_TRUE(jsonl_files(dir.path + "/missing", &error).empty());
  EXPECT_FALSE(error.empty());
}

// The daemon end to end: a clean shutdown writes the snapshot, and a restart
// with it answers every query exactly as a restart that replays the logs.
TEST(ShardSnapshot, DaemonRestartAnswersAsAReplayDoes) {
  TempDir dir("test_snapshot_daemon");
  ServerOptions opts;
  opts.state_dir = dir.path;
  opts.max_concurrent = 1;
  opts.tuning = quick_options(PolicyKind::kHarl);
  {
    HarlServer server(opts);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    Request tune;
    tune.type = RequestType::kTune;
    tune.network = "bert";
    tune.hw = "test";
    tune.trials = 60;
    tune.seed = 3;
    Response admitted = server.handle_for_test(tune);
    ASSERT_TRUE(admitted.ok) << admitted.error;
    Request status;
    status.type = RequestType::kStatus;
    status.job = admitted.job;
    for (int i = 0; i < 2400 && server.handle_for_test(status).state != "done"; ++i) {
      ::usleep(50000);
    }
    ASSERT_EQ(server.handle_for_test(status).state, "done");
    server.shutdown();
  }
  const std::string shard = dir.path + "/test";
  const std::string snap = shard + "/" + kShardSnapshotFile;
  std::string text;
  ASSERT_TRUE(read_text_file(snap, &text, nullptr));
  EXPECT_TRUE(restart_matches_replay(shard, KnowledgeCacheOptions{}, "daemon"));

  // Every bert_b1 task (L1), every bert_b16 task (L2 transfer) and a
  // mobilenet task (L3 advice), with the timing field zeroed.
  auto replies = [&] {
    std::vector<std::string> out;
    HarlServer server(opts);
    std::string error;
    EXPECT_TRUE(server.start(&error)) << error;
    std::vector<std::pair<std::string, std::string>> keys;
    for (const std::int64_t batch : {1, 16}) {
      const Network n = make_network("bert", batch);
      for (const Subgraph& g : n.subgraphs) keys.emplace_back(n.name, g.name());
    }
    keys.emplace_back("mobilenet_v2_b1",
                      make_network("mobilenet_v2", 1).subgraphs.front().name());
    for (const auto& [net, task] : keys) {
      Request q;
      q.type = RequestType::kQuery;
      q.network = net;
      q.task = task;
      q.hw = "test";
      Response r = server.handle_for_test(q);
      r.serve_us = 0;
      out.push_back(response_to_json(r));
    }
    server.shutdown();
    return out;
  };
  const std::vector<std::string> with_snapshot = replies();
  ASSERT_EQ(std::remove(snap.c_str()), 0);
  const std::vector<std::string> replayed = replies();
  EXPECT_EQ(with_snapshot, replayed);
  std::size_t l1 = 0;
  for (const std::string& r : with_snapshot) l1 += r.find("\"tier\":\"L1\"") != std::string::npos;
  EXPECT_GT(l1, 0u);
  // The replaying restart wrote the snapshot back, identical to the first.
  std::string again;
  ASSERT_TRUE(read_text_file(snap, &again, nullptr));
  EXPECT_EQ(again, text);
}

}  // namespace
}  // namespace harl
