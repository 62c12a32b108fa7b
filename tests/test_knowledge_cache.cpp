#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/presets.hpp"
#include "core/tuning.hpp"
#include "io/record_io.hpp"
#include "io/record_logger.hpp"
#include "serve/cache_updater.hpp"
#include "serve/knowledge_cache.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

/// RAII temp file.
struct TempPath {
  explicit TempPath(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~TempPath() { std::remove(path.c_str()); }
  std::string path;
};

/// A valid synthetic record of `graph` on `hw`: a random schedule of the
/// first sketch, stamped with full transfer provenance.
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

TEST(KnowledgeCache, InsertDedupAndTopKEviction) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 64, 64);
  std::vector<Sketch> sketches = generate_sketches(g);

  KnowledgeCacheOptions opts;
  opts.top_k = 3;
  KnowledgeCache cache(opts);
  std::vector<TuningRecord> recs;
  for (int i = 0; i < 8; ++i) {
    recs.push_back(synth_record(g, sketches, hw, "netA", 10.0 - i,
                                static_cast<std::uint64_t>(i + 1)));
  }
  for (const TuningRecord& r : recs) EXPECT_TRUE(cache.insert(r));
  // 8 inserted into a top-3 entry: 5 evicted, the 3 fastest kept.
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_EQ(cache.num_records(), 3u);
  EXPECT_EQ(cache.stats().inserts, 8u);
  EXPECT_EQ(cache.stats().evictions, 5u);

  // A duplicate of a kept record is dropped, not double-counted.
  EXPECT_FALSE(cache.insert(recs.back()));
  EXPECT_EQ(cache.stats().duplicates, 1u);
  // A record worse than every kept one bounces off the full entry.
  EXPECT_FALSE(cache.insert(recs.front()));
  EXPECT_EQ(cache.num_records(), 3u);

  // The served best is the fastest record, regardless of insert order.
  ServeResult res = cache.serve("netA", g, hw);
  EXPECT_EQ(res.tier, ServeTier::kL1);
  EXPECT_EQ(res.est_time_ms, recs.back().time_ms);
}

TEST(KnowledgeCache, ContentsAreInsertOrderIndependent) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 32, 48);
  std::vector<Sketch> sketches = generate_sketches(g);

  std::vector<TuningRecord> recs;
  for (int i = 0; i < 12; ++i) {
    // Duplicate times force the serialized-bytes tie-break to do the work.
    recs.push_back(synth_record(g, sketches, hw, "netA", 5.0 + (i % 3),
                                static_cast<std::uint64_t>(i + 1)));
  }
  KnowledgeCacheOptions opts;
  opts.top_k = 4;
  KnowledgeCache a(opts), b(opts);
  for (const TuningRecord& r : recs) a.insert(r);
  std::reverse(recs.begin(), recs.end());
  for (const TuningRecord& r : recs) b.insert(r);
  EXPECT_EQ(cache_to_json(a), cache_to_json(b));
  EXPECT_EQ(cache_fingerprint(a), cache_fingerprint(b));
}

/// The insert rule restated without shortcuts: every offered record is
/// serialized and placed under (time asc, bytes asc).  Its counters are what
/// `KnowledgeCache` must report for the same insert order.
struct ReferenceCache {
  using Item = std::pair<double, std::string>;
  explicit ReferenceCache(std::size_t k) : top_k(k) {}

  void insert(const TuningRecord& rec) {
    if (!(rec.time_ms > 0) || !rec.fail.empty()) {
      ++stats.rejected;
      return;
    }
    std::vector<Item>& entry =
        entries[std::make_tuple(rec.network, rec.task, rec.hardware_fp)];
    if (entry.size() == top_k && rec.time_ms == entry.back().first) {
      ++boundary_ties;
    }
    Item item{rec.time_ms, record_to_json(rec)};
    auto pos = std::lower_bound(entry.begin(), entry.end(), item);
    if (pos != entry.end() && *pos == item) {
      ++stats.duplicates;
      return;
    }
    if (static_cast<std::size_t>(pos - entry.begin()) >= top_k) {
      ++stats.evictions;
      return;
    }
    if (pos == entry.begin() && !entry.empty()) ++stats.invalidations;
    entry.insert(pos, std::move(item));
    ++stats.inserts;
    if (entry.size() > top_k) {
      entry.pop_back();
      ++stats.evictions;
    }
  }

  std::size_t top_k;
  std::map<std::tuple<std::string, std::string, std::uint64_t>,
           std::vector<Item>>
      entries;
  ServeStats stats;
  std::size_t boundary_ties = 0;  ///< offers tied with a full entry's worst
};

void expect_same_insert_stats(const ServeStats& a, const ServeStats& b,
                              const std::string& what) {
  EXPECT_EQ(a.inserts, b.inserts) << what;
  EXPECT_EQ(a.duplicates, b.duplicates) << what;
  EXPECT_EQ(a.evictions, b.evictions) << what;
  EXPECT_EQ(a.invalidations, b.invalidations) << what;
  EXPECT_EQ(a.rejected, b.rejected) << what;
}

// Hydration property: a record set loaded from its log, or inserted record
// by record in any order, gives the same cache bytes, and the counters match
// the shortcut-free reference rule for that order.  The sets mix several
// keys, coarse times (ties at the k-th kept time), byte-identical duplicates
// and failed or timeless records.
TEST(KnowledgeCache, HydrationMatchesTheReferenceRuleInAnyOrder) {
  HardwareConfig hw = HardwareConfig::test_config();
  HardwareConfig xeon = HardwareConfig::xeon_6226r();
  Subgraph g1 = make_gemm(64, 64, 64);
  Subgraph g2 = make_gemm(128, 64, 32, 1, "gemm2");
  Subgraph sibling = make_gemm(128, 64, 64, 1, "gemm_big");
  std::vector<Sketch> sk1 = generate_sketches(g1);
  std::vector<Sketch> sk2 = generate_sketches(g2);

  std::size_t boundary_ties = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 7919);
    KnowledgeCacheOptions opts;
    opts.top_k = 2 + static_cast<int>(seed % 3);
    std::vector<TuningRecord> recs;
    for (int i = 0; i < 120; ++i) {
      const double kind = rng.next_double();
      if (kind < 0.1 && !recs.empty()) {
        recs.push_back(recs[rng.pick_index(recs.size())]);  // exact duplicate
        continue;
      }
      const bool first = rng.next_double() < 0.5;
      const HardwareConfig& h = rng.next_double() < 0.5 ? hw : xeon;
      std::string net = rng.next_double() < 0.5 ? "netA" : "netB";
      double time_ms = 1.0 + 0.5 * static_cast<double>(rng.pick_index(6));
      TuningRecord rec = synth_record(first ? g1 : g2, first ? sk1 : sk2, h,
                                      net, time_ms,
                                      seed * 1000 + static_cast<std::uint64_t>(i));
      if (kind < 0.15) rec.fail = "timeout";
      else if (kind < 0.2) rec.time_ms = (kind < 0.175) ? 0.0 : -1.0;
      recs.push_back(std::move(rec));
    }
    const std::string tag = "seed " + std::to_string(seed);

    TempPath log("test_kcache_hydrate_" + std::to_string(seed) + ".jsonl");
    {
      RecordWriter writer;
      ASSERT_TRUE(writer.open(log.path, /*append=*/false));
      for (const TuningRecord& r : recs) ASSERT_TRUE(writer.write(r));
    }
    KnowledgeCache from_log(opts);
    const std::size_t added = from_log.insert_log(log.path);
    const std::string bytes = cache_to_json(from_log);

    ReferenceCache ref(static_cast<std::size_t>(opts.top_k));
    KnowledgeCache in_order(opts);
    for (const TuningRecord& r : recs) {
      ref.insert(r);
      in_order.insert(r);
    }
    boundary_ties += ref.boundary_ties;
    EXPECT_EQ(added, ref.stats.inserts) << tag;
    EXPECT_EQ(cache_to_json(in_order), bytes) << tag;
    expect_same_insert_stats(from_log.stats(), ref.stats, tag + " log");
    expect_same_insert_stats(in_order.stats(), ref.stats, tag + " in order");

    std::vector<TuningRecord> shuffled = recs;
    for (int order = 0; order < 3; ++order) {
      rng.shuffle(shuffled);
      ReferenceCache ref_shuffled(static_cast<std::size_t>(opts.top_k));
      KnowledgeCache cache(opts);
      for (const TuningRecord& r : shuffled) {
        ref_shuffled.insert(r);
        cache.insert(r);
      }
      boundary_ties += ref_shuffled.boundary_ties;
      const std::string what = tag + " order " + std::to_string(order);
      EXPECT_EQ(cache_to_json(cache), bytes) << what;
      expect_same_insert_stats(cache.stats(), ref_shuffled.stats, what);
      // Order moves records between the counters, never in or out of them.
      const ServeStats s = cache.stats();
      EXPECT_EQ(s.rejected, ref.stats.rejected) << what;
      EXPECT_EQ(s.evictions + s.duplicates,
                ref.stats.evictions + ref.stats.duplicates)
          << what;
    }

    // Replies carry the stored bytes of the record they came from.
    ServeResult l1 = from_log.serve("netA", g1, hw);
    ASSERT_EQ(l1.tier, ServeTier::kL1) << tag;
    EXPECT_EQ(l1.record_json, record_to_json(l1.record)) << tag;
    const auto& best =
        ref.entries[std::make_tuple(std::string("netA"), g1.name(),
                                    hw.fingerprint())];
    ASSERT_FALSE(best.empty()) << tag;
    EXPECT_EQ(l1.record_json, best.front().second) << tag;
    ServeResult l2 = from_log.serve("netQ", sibling, hw);
    ASSERT_EQ(l2.tier, ServeTier::kL2) << tag;
    EXPECT_EQ(l2.record_json, record_to_json(l2.record)) << tag;
    ServeResult l3 = from_log.serve("netQ", make_softmax(64, 256), hw);
    ASSERT_EQ(l3.tier, ServeTier::kL3) << tag;
    EXPECT_TRUE(l3.record_json.empty()) << tag;
  }
  // The sets really exercised the byte tie-break at a full entry's bound.
  EXPECT_GT(boundary_ties, 0u);
}

TEST(KnowledgeCache, HydrationWarnsOnceAboutSkippedLines) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 64, 64);
  std::vector<Sketch> sketches = generate_sketches(g);
  const std::string good1 =
      record_to_json(synth_record(g, sketches, hw, "netA", 1.5, 1));
  const std::string good2 =
      record_to_json(synth_record(g, sketches, hw, "netA", 2.5, 2));
  std::string first_error;
  TuningRecord scratch;
  ASSERT_FALSE(record_from_json("{\"v\":1", &scratch, &first_error));

  TempPath damaged("test_kcache_damaged.jsonl");
  TempPath clean("test_kcache_clean.jsonl");
  for (const auto& [path, text] :
       {std::make_pair(damaged.path, good1 + "\n{\"v\":1\n" + good2 +
                                         "\nnot json\n"),
        std::make_pair(clean.path, good1 + "\n" + good2 + "\n")}) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

  const LogLevel saved = log_level();
  set_log_level(LogLevel::kWarn);
  KnowledgeCache from_damaged;
  testing::internal::CaptureStderr();
  EXPECT_EQ(from_damaged.insert_log(damaged.path), 2u);
  const std::string warned = testing::internal::GetCapturedStderr();
  KnowledgeCache from_clean;
  testing::internal::CaptureStderr();
  EXPECT_EQ(from_clean.insert_log(clean.path), 2u);
  const std::string quiet = testing::internal::GetCapturedStderr();
  set_log_level(saved);

  // One line per file: the count, and where the first bad line is and why.
  EXPECT_EQ(std::count(warned.begin(), warned.end(), '\n'), 1) << warned;
  EXPECT_NE(warned.find(damaged.path + ": skipped 2 malformed line(s); "
                        "first at line 2: " + first_error),
            std::string::npos)
      << warned;
  EXPECT_EQ(quiet, "");
  // The warning is the only difference: the cache bytes match.
  EXPECT_EQ(cache_to_json(from_damaged), cache_to_json(from_clean));
}

TEST(KnowledgeCache, SaveLoadByteIdentityFuzz) {
  HardwareConfig hw = HardwareConfig::test_config();
  HardwareConfig xeon = HardwareConfig::xeon_6226r();
  Subgraph g1 = make_gemm(64, 64, 64);
  Subgraph g2 = make_gemm(128, 64, 32, 1, "gemm2");
  std::vector<Sketch> sk1 = generate_sketches(g1);
  std::vector<Sketch> sk2 = generate_sketches(g2);

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 977);
    KnowledgeCacheOptions opts;
    opts.top_k = 2 + static_cast<int>(seed % 3);
    KnowledgeCache cache(opts);
    for (int i = 0; i < 40; ++i) {
      const bool first = rng.next_double() < 0.5;
      const Subgraph& g = first ? g1 : g2;
      const std::vector<Sketch>& sk = first ? sk1 : sk2;
      const HardwareConfig& h = rng.next_double() < 0.5 ? hw : xeon;
      std::string net = rng.next_double() < 0.5 ? "netA" : "netB";
      cache.insert(synth_record(g, sk, h, net, 1.0 + rng.next_double() * 9.0,
                                seed * 1000 + static_cast<std::uint64_t>(i)));
    }
    std::string bytes = cache_to_json(cache);
    KnowledgeCache loaded;
    std::string error;
    ASSERT_TRUE(cache_from_json(bytes, &loaded, &error)) << error;
    EXPECT_EQ(cache_to_json(loaded), bytes) << "seed " << seed;
    EXPECT_EQ(loaded.options().top_k, opts.top_k);
    EXPECT_EQ(loaded.num_records(), cache.num_records());

    TempPath file("test_kcache_" + std::to_string(seed) + ".json");
    ASSERT_TRUE(save_cache(cache, file.path, &error)) << error;
    KnowledgeCache from_file;
    ASSERT_TRUE(load_cache(file.path, &from_file, &error)) << error;
    EXPECT_EQ(cache_to_json(from_file), bytes);
  }
}

TEST(KnowledgeCache, LoadRejectsGarbageAndNewerVersions) {
  KnowledgeCache cache;
  std::string error;
  EXPECT_FALSE(cache_from_json("not json", &cache, &error));
  EXPECT_FALSE(cache_from_json("[1,2,3]", &cache, &error));
  EXPECT_FALSE(cache_from_json("{\"harl_kcache\":999,\"entries\":[]}", &cache,
                               &error));
  EXPECT_NE(error.find("version"), std::string::npos);
  EXPECT_FALSE(cache_from_json(
      "{\"harl_kcache\":1,\"entries\":[{\"records\":[{\"v\":1}]}]}", &cache,
      &error));
}

TEST(KnowledgeCache, L2ScheduleBelongsToTheQueryTask) {
  HardwareConfig hw = HardwareConfig::test_config();
  // Knowledge about one shape; queries about a structural sibling (2x rows).
  Subgraph src = make_gemm(64, 64, 64);
  Subgraph sibling = make_gemm(128, 64, 64, 1, "gemm_big");
  std::vector<Sketch> sketches = generate_sketches(src);

  KnowledgeCache cache;
  for (int i = 0; i < 6; ++i) {
    cache.insert(synth_record(src, sketches, hw, "netA", 2.0 + i,
                              static_cast<std::uint64_t>(i + 1)));
  }
  ServeResult res = cache.serve("netB", sibling, hw);
  ASSERT_EQ(res.tier, ServeTier::kL2);
  // The adapted schedule is rebuilt against the *query* task: its graph is
  // the sibling (not the source), it validates there, and its tile products
  // match the sibling's extents — never the source's.
  ASSERT_NE(res.schedule.sketch, nullptr);
  EXPECT_EQ(res.schedule.graph().name(), sibling.name());
  EXPECT_TRUE(validate_schedule(res.schedule, hw.num_unroll_options()).empty());
  const TensorOp& op = sibling.stage(sibling.anchor_stage()).op;
  const StageSchedule& anchor = res.schedule.stage(sibling.anchor_stage());
  ASSERT_EQ(anchor.tiles.size(), op.axes.size());
  for (std::size_t a = 0; a < anchor.tiles.size(); ++a) {
    EXPECT_EQ(anchor.tiles[a].product(), op.axes[a].extent);
  }
  // The claimed source record really is from the source task.
  EXPECT_EQ(res.record.task, src.name());
}

TEST(KnowledgeCache, L2RespectsTheStructureGate) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph src = make_gemm(64, 64, 64);
  Subgraph conv = make_single_op_subgraph(
      make_conv2d_op(1, 16, 16, 8, 8, 3, 1, 1));
  std::vector<Sketch> sketches = generate_sketches(src);

  KnowledgeCacheOptions opts;
  opts.golden_advice = false;
  KnowledgeCache cache(opts);
  cache.insert(synth_record(src, sketches, hw, "netA", 2.0, 1));
  // A conv query must not be served gemm knowledge: signatures differ.
  ServeResult res = cache.serve("netB", conv, hw);
  EXPECT_EQ(res.tier, ServeTier::kMiss);
  EXPECT_EQ(res.schedule.sketch, nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(KnowledgeCache, GoldenAdviceIsDeterministicAndValid) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 64, 64);
  KnowledgeCache a, b;  // both empty: cold miss
  ServeResult ra = a.serve("net", g, hw);
  ServeResult rb = b.serve("net", g, hw);
  ASSERT_EQ(ra.tier, ServeTier::kL3);
  ASSERT_EQ(rb.tier, ServeTier::kL3);
  EXPECT_TRUE(validate_schedule(ra.schedule, hw.num_unroll_options()).empty());
  // Two cold servers give the same golden advice.
  EXPECT_EQ(ra.schedule.fingerprint(), rb.schedule.fingerprint());
  EXPECT_EQ(a.stats().l3_hits, 1u);
}

TEST(KnowledgeCache, InsertReportsBestDisplacementAndCountsInvalidations) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 64, 64);
  std::vector<Sketch> sketches = generate_sketches(g);

  KnowledgeCache cache;
  bool displaced = true;
  ASSERT_TRUE(cache.insert(synth_record(g, sketches, hw, "net", 2.0, 1),
                           &displaced));
  EXPECT_FALSE(displaced);  // first record of an entry is no *displacement*
  EXPECT_EQ(cache.stats().invalidations, 0u);

  // A slower record leaves the best alone.
  ASSERT_TRUE(cache.insert(synth_record(g, sketches, hw, "net", 3.0, 2),
                           &displaced));
  EXPECT_FALSE(displaced);
  EXPECT_EQ(cache.stats().invalidations, 0u);

  // A faster one retires the cached best: flagged and counted, and the very
  // next serve answers with the new best — no stale window.
  TuningRecord better = synth_record(g, sketches, hw, "net", 1.0, 3);
  ASSERT_TRUE(cache.insert(better, &displaced));
  EXPECT_TRUE(displaced);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  ServeResult res = cache.serve("net", g, hw);
  ASSERT_EQ(res.tier, ServeTier::kL1);
  EXPECT_EQ(record_to_json(res.record), record_to_json(better));
}

TEST(KnowledgeCache, PublishCacheStampsTheGenerationItWrote) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 64, 64);
  std::vector<Sketch> sketches = generate_sketches(g);
  TempPath file("test_kcache_publish_gen.json");

  KnowledgeCache cache;
  EXPECT_EQ(cache.generation(), 0u);  // never published
  cache.insert(synth_record(g, sketches, hw, "net", 2.0, 1));
  std::string error;
  ASSERT_TRUE(publish_cache(cache, file.path, &error)) << error;
  EXPECT_EQ(cache.generation(), cache_fingerprint(cache));
  EXPECT_EQ(cache.stats().refreshes, 1u);

  // A reader of the published file lands on the same generation.
  KnowledgeCache reader;
  ASSERT_TRUE(load_cache(file.path, &reader, &error)) << error;
  reader.note_reload(cache_fingerprint(reader));
  EXPECT_EQ(reader.generation(), cache.generation());

  // Republish after a change moves the generation.
  std::uint64_t gen1 = cache.generation();
  cache.insert(synth_record(g, sketches, hw, "net", 1.0, 2));
  ASSERT_TRUE(publish_cache(cache, file.path, &error)) << error;
  EXPECT_NE(cache.generation(), gen1);
}

TEST(KnowledgeCache, UpdaterCallbackServesNewBestWithinOnePeriod) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 64, 64);
  Network net;
  net.name = "kc_net";
  net.subgraphs.push_back(g);

  KnowledgeCache cache;
  TempPath file("test_kcache_updater.json");
  CacheUpdateOptions copts;
  copts.save_period_rounds = 1;  // republish every round
  copts.save_path = file.path;
  KnowledgeCacheUpdater updater(&cache, copts);

  SearchOptions opts = quick_options(PolicyKind::kHarl, 17);
  opts.measures_per_round = 5;
  TuningSession session(net, hw, opts);
  session.add_callback(&updater);
  session.run(60);

  EXPECT_GT(updater.records_folded(), 0u);
  EXPECT_GT(updater.saves(), 0u);
  EXPECT_EQ(updater.save_errors(), 0u);

  // The cache answers with the session's best — no search, same schedule.
  ServeResult res = cache.serve(net.name, g, hw);
  ASSERT_EQ(res.tier, ServeTier::kL1);
  EXPECT_EQ(res.est_time_ms, session.task_best_ms(0));

  // The periodically-published file holds the same knowledge: a sibling
  // serving process that loads it gets the same L1 answer (the last publish
  // was at most one period — one round — before the best was logged, and
  // save_now() on session end flushes the tail).
  updater.save_now();
  KnowledgeCache reloaded;
  std::string error;
  ASSERT_TRUE(load_cache(file.path, &reloaded, &error)) << error;
  ServeResult res2 = reloaded.serve(net.name, g, hw);
  ASSERT_EQ(res2.tier, ServeTier::kL1);
  EXPECT_EQ(record_to_json(res2.record), record_to_json(res.record));
}

}  // namespace
}  // namespace harl
