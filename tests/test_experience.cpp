#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/presets.hpp"
#include "core/tuning.hpp"
#include "cost/gbdt_io.hpp"
#include "exp/compact.hpp"
#include "exp/experience.hpp"
#include "exp/transfer.hpp"
#include "io/record_logger.hpp"
#include "io/resume.hpp"
#include "workloads/networks.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

SearchOptions tiny_options(PolicyKind kind, std::uint64_t seed) {
  SearchOptions opts = quick_options(kind, seed);
  opts.harl.stop.initial_tracks = 8;
  opts.harl.stop.min_tracks = 2;
  opts.harl.stop.window = 4;
  opts.harl.ppo.minibatch_size = 16;
  opts.harl.ppo.update_epochs = 1;
  opts.ansor.population = 16;
  opts.ansor.generations = 2;
  opts.measures_per_round = 5;
  return opts;
}

/// RAII temp file.
struct TempPath {
  explicit TempPath(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~TempPath() { std::remove(path.c_str()); }
  std::string path;
};

/// Tune `graph` with logging and return the log's records.
std::vector<TuningRecord> tune_and_log(const Subgraph& graph,
                                       const HardwareConfig& hw, PolicyKind kind,
                                       std::uint64_t seed, std::int64_t trials,
                                       const std::string& path) {
  Network net;
  net.name = "exp_" + graph.name();
  net.subgraphs.push_back(graph);
  TuningSession session(net, hw, tiny_options(kind, seed));
  RecordLogger logger;
  EXPECT_TRUE(logger.open(path, /*append=*/false));
  session.add_callback(&logger);
  session.run(trials);
  return read_records(path);
}

/// Synthetic regression data with structure (so trees actually split).
void synthetic_data(std::size_t rows, int nf, std::uint64_t seed,
                    std::vector<double>* x, std::vector<double>* y) {
  Rng rng(seed);
  x->resize(rows * static_cast<std::size_t>(nf));
  y->resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    double target = 0;
    for (int f = 0; f < nf; ++f) {
      double v = rng.next_range(-2.0, 2.0);
      (*x)[i * static_cast<std::size_t>(nf) + static_cast<std::size_t>(f)] = v;
      target += (f % 3 == 0 ? 1.0 : -0.5) * v;
    }
    (*y)[i] = target + 0.1 * rng.next_normal();
  }
}

// ------------------------------------------------------------ gbdt io

TEST(GbdtIoTest, SaveLoadRoundTripIsByteStableAndPredictsIdentically) {
  std::vector<double> x, y;
  constexpr int kNf = 12;
  synthetic_data(300, kNf, 99, &x, &y);
  GbdtConfig cfg;
  cfg.num_trees = 20;
  Gbdt model(cfg);
  model.fit(x, kNf, y);
  ASSERT_TRUE(model.trained());

  std::string text = gbdt_to_json(model);
  Gbdt loaded;
  std::string error;
  ASSERT_TRUE(gbdt_from_json(text, &loaded, &error)) << error;

  // Byte stability: save -> load -> save reproduces the exact bytes.
  EXPECT_EQ(gbdt_to_json(loaded), text);
  EXPECT_EQ(loaded.num_trees_fit(), model.num_trees_fit());
  EXPECT_EQ(loaded.num_features(), model.num_features());

  // Bit-identical predictions on a fuzzed batch.
  std::vector<double> fuzz, unused;
  synthetic_data(512, kNf, 1234, &fuzz, &unused);
  std::vector<double> a(512), b(512);
  model.predict_batch(fuzz.data(), 512, a.data());
  loaded.predict_batch(fuzz.data(), 512, b.data());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "row " << i;
  }
}

TEST(GbdtIoTest, FitMoreContinuesIdenticallyAfterReload) {
  std::vector<double> x, y;
  constexpr int kNf = 8;
  synthetic_data(200, kNf, 5, &x, &y);
  GbdtConfig cfg;
  cfg.num_trees = 10;
  cfg.row_subsample = 0.8;  // consumes RNG, so the stream position matters
  Gbdt original(cfg);
  original.fit(x, kNf, y);

  Gbdt reloaded;
  std::string error;
  ASSERT_TRUE(gbdt_from_json(gbdt_to_json(original), &reloaded, &error)) << error;

  // Boosting more trees from the serialized RNG words must match boosting
  // the in-memory model.
  original.fit_more(x, kNf, y, 5);
  reloaded.fit_more(x, kNf, y, 5);
  EXPECT_EQ(gbdt_to_json(original), gbdt_to_json(reloaded));
}

TEST(GbdtIoTest, RejectsNewerVersionsAndCorruptDocuments) {
  std::vector<double> x, y;
  synthetic_data(50, 4, 3, &x, &y);
  Gbdt model;
  model.fit(x, 4, y);
  std::string text = gbdt_to_json(model);

  Gbdt out;
  std::string error;
  // Newer version.
  std::string newer = text;
  std::size_t pos = newer.find("\"harl_gbdt\":1");
  ASSERT_NE(pos, std::string::npos);
  newer.replace(pos, 13, "\"harl_gbdt\":9");
  EXPECT_FALSE(gbdt_from_json(newer, &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos);

  // Malformed JSON, wrong root, missing fields, corrupt forest.
  EXPECT_FALSE(gbdt_from_json("{\"harl_gbdt\":1,", &out, &error));
  EXPECT_FALSE(gbdt_from_json("[1,2,3]", &out, &error));
  EXPECT_FALSE(gbdt_from_json("{\"harl_gbdt\":1}", &out, &error));
  std::string corrupt = text;
  pos = corrupt.find("\"child\":[");
  ASSERT_NE(pos, std::string::npos);
  corrupt.replace(pos + 9, 1, "-");  // first child index becomes negative
  EXPECT_FALSE(gbdt_from_json(corrupt, &out, &error));

  // A self-referencing child link is in range but cyclic; predict would spin
  // forever, so the loader must reject it (flatten emits children strictly
  // after their parent, making child > parent an invariant of real files).
  const std::string cyclic =
      "{\"harl_gbdt\":1,\"cfg\":{\"trees\":1,\"depth\":3,\"lr\":0.3,"
      "\"min_leaf\":2,\"row_sub\":1,\"col_sub\":1,\"l2\":1,\"seed\":7,"
      "\"split\":0,\"bins\":64},\"nf\":2,\"fit\":1,\"base\":0,"
      "\"feat\":[0,-1,-1],\"thresh\":[0.5,1,2],\"child\":[0,-1,-1],"
      "\"root\":[0],\"rng\":[1,2]}";
  EXPECT_FALSE(gbdt_from_json(cyclic, &out, &error));
  EXPECT_NE(error.find("cycle"), std::string::npos);

  // A child index at INT_MAX is past the end; its right sibling would be
  // INT_MAX + 1, which the range check must not compute.
  std::string far = cyclic;
  far.replace(far.find("\"child\":[0"), 10, "\"child\":[2147483647");
  EXPECT_FALSE(gbdt_from_json(far, &out, &error));
  EXPECT_NE(error.find("child index out of range"), std::string::npos);
}

TEST(GbdtIoTest, SaveAndLoadFiles) {
  std::vector<double> x, y;
  synthetic_data(100, 6, 21, &x, &y);
  Gbdt model;
  model.fit(x, 6, y);

  TempPath path("harl_test_model.json");
  std::string error;
  ASSERT_TRUE(save_gbdt(model, path.path, &error)) << error;
  Gbdt loaded;
  ASSERT_TRUE(load_gbdt(path.path, &loaded, &error)) << error;
  EXPECT_EQ(gbdt_to_json(loaded), gbdt_to_json(model));

  EXPECT_FALSE(load_gbdt("no_such_dir/no_such_model.json", &loaded, &error));
  EXPECT_FALSE(save_gbdt(model, "no_such_dir/no_such_model.json", &error));
}

// ------------------------------------------------------------ harvest

TEST(ExperienceStoreTest, MixedLogsFoldDeterministically) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g_a = make_gemm(64, 64, 64, 1, "mix_gemm");
  Subgraph g_b = make_gemm(32, 32, 32, 1, "mix_gemm_small");

  TempPath log_a("harl_test_exp_a.jsonl");
  TempPath log_b("harl_test_exp_b.jsonl");
  TempPath log_c("harl_test_exp_c.jsonl");
  tune_and_log(g_a, hw, PolicyKind::kHarl, 31, 40, log_a.path);
  tune_and_log(g_a, hw, PolicyKind::kAnsor, 32, 40, log_b.path);
  tune_and_log(g_b, hw, PolicyKind::kRandom, 33, 40, log_c.path);

  TaskResolver resolver = [&](const std::string&,
                              const std::string& task) -> const Subgraph* {
    if (task == g_a.name()) return &g_a;
    if (task == g_b.name()) return &g_b;
    return nullptr;
  };
  GbdtConfig cfg;
  cfg.num_trees = 15;

  // Same logs, any add order: bit-identical model.
  ExperienceStore fwd, rev;
  fwd.add_log(log_a.path);
  fwd.add_log(log_b.path);
  fwd.add_log(log_c.path);
  rev.add_log(log_c.path);
  rev.add_log(log_a.path);
  rev.add_log(log_b.path);
  HarvestStats stats_fwd, stats_rev;
  Gbdt model_fwd = fwd.pretrain(hw, cfg, resolver, &stats_fwd);
  Gbdt model_rev = rev.pretrain(hw, cfg, resolver, &stats_rev);
  ASSERT_TRUE(model_fwd.trained());
  EXPECT_EQ(gbdt_to_json(model_fwd), gbdt_to_json(model_rev));
  EXPECT_GT(stats_fwd.rows, 0u);
  EXPECT_EQ(stats_fwd.rows, stats_rev.rows);
  // Both g_a runs share one (network, task, hardware) group; g_b is its own.
  EXPECT_EQ(stats_fwd.groups, 2u);
  EXPECT_EQ(stats_fwd.unknown_tasks, 0u);
  EXPECT_EQ(stats_fwd.invalid_schedules, 0u);
}

TEST(ExperienceStoreTest, CompactedAndMalformedInputsFoldIdentically) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 32, 64, 1, "fold_gemm");
  TempPath log("harl_test_exp_fold.jsonl");
  TempPath compacted("harl_test_exp_fold_c.jsonl");
  TempPath dirty("harl_test_exp_fold_dirty.jsonl");
  tune_and_log(g, hw, PolicyKind::kAnsor, 44, 40, log.path);

  // Adding a log's own compaction on top of it must not change the model
  // (duplicates are dropped), and malformed lines must be skipped.
  CompactOptions copts;
  copts.best_k = 4;
  copts.window = 8;
  ASSERT_TRUE(compact_log(log.path, compacted.path, copts));

  {
    // dirty = log + garbage lines appended.
    std::FILE* src = std::fopen(log.path.c_str(), "rb");
    std::FILE* dst = std::fopen(dirty.path.c_str(), "wb");
    ASSERT_NE(src, nullptr);
    ASSERT_NE(dst, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), src)) > 0) {
      std::fwrite(buf, 1, n, dst);
    }
    std::fputs("{not json at all\n\n{\"v\":99,\"oops\":true}\n", dst);
    std::fclose(src);
    std::fclose(dst);
  }

  TaskResolver resolver = [&](const std::string&,
                              const std::string& task) -> const Subgraph* {
    return task == g.name() ? &g : nullptr;
  };
  GbdtConfig cfg;
  cfg.num_trees = 12;

  ExperienceStore clean, overlapped;
  clean.add_log(log.path);
  overlapped.add_log(dirty.path);      // same records + junk lines
  overlapped.add_log(compacted.path);  // subset duplicates
  HarvestStats stats_clean, stats_over;
  Gbdt model_clean = clean.pretrain(hw, cfg, resolver, &stats_clean);
  Gbdt model_over = overlapped.pretrain(hw, cfg, resolver, &stats_over);
  ASSERT_TRUE(model_clean.trained());
  EXPECT_EQ(gbdt_to_json(model_clean), gbdt_to_json(model_over));
  EXPECT_GT(stats_over.duplicates, 0u);
  EXPECT_GE(stats_over.lines_skipped, 2u);  // the garbage + incompatible lines
  EXPECT_EQ(stats_clean.rows, stats_over.rows);
}

TEST(ExperienceStoreTest, BuiltinResolverHandlesShippedNetworks) {
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  Network net = make_bert(1);
  TempPath log("harl_test_exp_bert.jsonl");
  {
    TuningSession session(net, hw, tiny_options(PolicyKind::kRandom, 9));
    RecordLogger logger;
    ASSERT_TRUE(logger.open(log.path, /*append=*/false));
    session.add_callback(&logger);
    session.run(60);
  }
  ExperienceStore store;
  ASSERT_GT(store.add_log(log.path), 0u);
  HarvestStats stats;
  ExperienceDataset data =
      store.build_dataset(hw, make_builtin_resolver(), &stats);
  EXPECT_GT(data.rows, 0u);
  EXPECT_EQ(stats.unknown_tasks, 0u);

  // Labels are normalized throughput in (0, 1].
  for (double label : data.labels) {
    EXPECT_GT(label, 0.0);
    EXPECT_LE(label, 1.0);
  }
}

TEST(ExperienceStoreTest, BuiltinResolverMemoKeepsOnlyShippedNetworks) {
  BuiltinNetworks memo;
  const Subgraph* gemm = memo.resolve("bert_b1", "GEMM-I");
  ASSERT_NE(gemm, nullptr);
  EXPECT_EQ(gemm->name(), "GEMM-I");
  EXPECT_EQ(memo.size(), 1u);

  // Unknown names, as a client may send them, all miss and are not kept:
  // bad bases, bad batch suffixes, and unknown tasks of a known network.
  for (int i = 0; i < 2000; ++i) {
    const std::string n = std::to_string(i);
    EXPECT_EQ(memo.resolve("nosuchnet" + n + "_b1", "GEMM-I"), nullptr);
    EXPECT_EQ(memo.resolve("bert_b" + n + "x", "GEMM-I"), nullptr);
    EXPECT_EQ(memo.resolve("bert" + n, "GEMM-I"), nullptr);
    EXPECT_EQ(memo.resolve("bert_b1", "task" + n), nullptr);
  }
  EXPECT_EQ(memo.size(), 1u);

  // Known names still resolve to the same subgraph object on every call.
  EXPECT_EQ(memo.resolve("bert_b1", "GEMM-I"), gemm);
  const Subgraph* conv = memo.resolve("resnet50_b2", "res_conv0");
  ASSERT_NE(conv, nullptr);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.resolve("resnet50_b2", "res_conv0"), conv);
  EXPECT_EQ(memo.resolve("bert_b1", "GEMM-I"), gemm);

  // The resolver shares one memo across its copies.
  TaskResolver resolver = make_builtin_resolver();
  TaskResolver copy = resolver;
  const Subgraph* first = resolver("mobilenet_v2_b1", "mbv2_fc");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(copy("mobilenet_v2_b1", "mbv2_fc"), first);
  EXPECT_EQ(copy("mobilenet_v2_b1x", "mbv2_fc"), nullptr);
}

TEST(ExperienceStoreTest, BuiltinResolverAcceptsOnlyCanonicalBatchNames) {
  BuiltinNetworks memo;
  const Subgraph* gemm = memo.resolve("bert_b1", "GEMM-I");
  ASSERT_NE(gemm, nullptr);
  ASSERT_EQ(memo.size(), 1u);

  // A batch of 0, a leading zero (another spelling of an existing network),
  // a sign, an empty or overflowing suffix: none builds or keeps a network.
  for (const char* name :
       {"bert_b0", "bert_b00", "bert_b01", "bert_b001", "bert_b+1", "bert_b-1",
        "bert_b 1", "bert_b", "bert_b99999999999999999999",
        "bert_b9223372036854775808", "bert_b9223372036854775807", "resnet50_b02"}) {
    EXPECT_EQ(memo.resolve(name, "GEMM-I"), nullptr) << name;
    EXPECT_EQ(memo.size(), 1u) << name;
  }
  // Past kMaxBatch nothing resolves: the memo holds at most kMaxBatch
  // networks per base.
  EXPECT_EQ(memo.resolve("bert_b" + std::to_string(kMaxBatch + 1), "GEMM-I"), nullptr);
  EXPECT_EQ(memo.size(), 1u);
  for (int call = 0; call < 3; ++call) {
    EXPECT_EQ(memo.resolve("bert_b1", "GEMM-I"), gemm);
  }
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_NE(memo.resolve("bert_b" + std::to_string(kMaxBatch), "GEMM-I"), nullptr);
  EXPECT_EQ(memo.size(), 2u);
}

// ------------------------------------------------------------ compaction

TEST(CompactTest, KeepsBestKPlusWindowAndStaysReadable) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 64, 64, 1, "compact_gemm");
  TempPath log("harl_test_compact.jsonl");
  TempPath out("harl_test_compact_out.jsonl");
  std::vector<TuningRecord> full =
      tune_and_log(g, hw, PolicyKind::kAnsor, 55, 60, log.path);
  ASSERT_GT(full.size(), 20u);

  CompactOptions copts;
  copts.best_k = 3;
  copts.window = 5;
  CompactStats stats;
  ASSERT_TRUE(compact_log(log.path, out.path, copts, &stats));
  EXPECT_EQ(stats.records_in, full.size());
  EXPECT_LT(stats.records_out, stats.records_in);
  EXPECT_EQ(stats.groups, 1u);

  // The compacted file parses with zero errors and is a subsequence of the
  // original in original order.
  std::vector<RecordReadError> errors;
  std::vector<TuningRecord> kept = read_records(out.path, &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(kept.size(), stats.records_out);
  std::size_t cursor = 0;
  for (const TuningRecord& k : kept) {
    while (cursor < full.size() && !(full[cursor] == k)) ++cursor;
    ASSERT_LT(cursor, full.size()) << "record not in source order";
    ++cursor;
  }

  // Best record survives; the last `window` records survive.
  const TuningRecord* best_full = nullptr;
  for (const TuningRecord& r : full) {
    if (best_full == nullptr || r.time_ms < best_full->time_ms) best_full = &r;
  }
  bool best_found = false;
  for (const TuningRecord& k : kept) {
    if (k == *best_full) best_found = true;
  }
  EXPECT_TRUE(best_found);
  for (std::size_t i = full.size() - 5; i < full.size(); ++i) {
    bool found = false;
    for (const TuningRecord& k : kept) {
      if (k == full[i]) found = true;
    }
    EXPECT_TRUE(found) << "window record " << i << " dropped";
  }
}

TEST(CompactTest, ApplyHistoryBestIdenticalOnCompactedLog) {
  Network net;
  net.name = "compact_net";
  net.subgraphs.push_back(make_gemm(64, 64, 64, 1, "ch_gemm", 2.0));
  net.subgraphs.push_back(make_elementwise(1 << 12, 2.0, "ch_ew", 1.0));
  HardwareConfig hw = HardwareConfig::test_config();

  TempPath log("harl_test_compact_apply.jsonl");
  TempPath out("harl_test_compact_apply_out.jsonl");
  {
    TuningSession session(net, hw, tiny_options(PolicyKind::kAnsor, 66));
    RecordLogger logger;
    ASSERT_TRUE(logger.open(log.path, /*append=*/false));
    session.add_callback(&logger);
    session.run(50);
  }
  CompactOptions copts;
  copts.best_k = 2;
  copts.window = 3;
  ASSERT_TRUE(compact_log(log.path, out.path, copts));

  TuningSession from_full(net, hw, tiny_options(PolicyKind::kHarl, 7));
  TuningSession from_compact(net, hw, tiny_options(PolicyKind::kHarl, 7));
  int applied_full = transfer_history_best(from_full, read_records(log.path)).applied;
  int applied_compact =
      transfer_history_best(from_compact, read_records(out.path)).applied;
  EXPECT_EQ(applied_full, applied_compact);
  EXPECT_EQ(applied_full, from_full.scheduler().num_tasks());
  ASSERT_TRUE(std::isfinite(from_full.latency_ms()));
  EXPECT_DOUBLE_EQ(from_full.latency_ms(), from_compact.latency_ms());
  for (int i = 0; i < from_full.scheduler().num_tasks(); ++i) {
    EXPECT_EQ(from_full.task_best_ms(i), from_compact.task_best_ms(i));
  }
}

// ------------------------------------------------------------ transfer

TEST(TransferTest, AdaptTileFactorsPreservesProductAndProportions) {
  // Same extent: verbatim copy.
  EXPECT_EQ(adapt_tile_factors({4, 2, 8}, 64), (std::vector<std::int64_t>{4, 2, 8}));
  // Changed extent: product invariant holds for a mix of shapes.
  for (std::int64_t extent : {1, 2, 12, 64, 96, 128, 1000, 17}) {
    std::vector<std::int64_t> adapted = adapt_tile_factors({4, 2, 8}, extent);
    ASSERT_EQ(adapted.size(), 3u);
    std::int64_t product = 1;
    for (std::int64_t f : adapted) {
      EXPECT_GE(f, 1);
      product *= f;
    }
    EXPECT_EQ(product, extent) << "extent " << extent;
  }
  // Trivial source (all innermost) stays trivial.
  EXPECT_EQ(adapt_tile_factors({1, 1, 64}, 128),
            (std::vector<std::int64_t>{1, 1, 128}));
  // Single level and scalar axes.
  EXPECT_EQ(adapt_tile_factors({16}, 32), (std::vector<std::int64_t>{32}));
  EXPECT_EQ(adapt_tile_factors({1, 1}, 1), (std::vector<std::int64_t>{1, 1}));
}

TEST(TransferTest, SiblingTaskTransfersWithScaledPessimisticEstimate) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph donor = make_gemm(64, 64, 64, 1, "donor_gemm");
  TempPath log("harl_test_transfer.jsonl");
  std::vector<TuningRecord> records =
      tune_and_log(donor, hw, PolicyKind::kAnsor, 77, 40, log.path);
  ASSERT_FALSE(records.empty());
  double donor_best = std::numeric_limits<double>::infinity();
  for (const TuningRecord& r : records) {
    donor_best = std::min(donor_best, r.time_ms);
  }

  // A sibling task: double the M extent, different name -> no exact match.
  Network net;
  net.name = "transfer_net";
  net.subgraphs.push_back(make_gemm(128, 64, 64, 1, "sibling_gemm"));
  TuningSession session(net, hw, tiny_options(PolicyKind::kHarl, 3));
  TransferOptions topts;
  TransferStats stats = transfer_history_best(session, records, topts);
  EXPECT_EQ(stats.exact, 0);
  EXPECT_EQ(stats.transferred, 1);

  // Estimate: donor best scaled by the iteration-space ratio (2x) and the
  // pessimism penalty.  It seeds the best pool without claiming a task best
  // (an estimate committed as a measurement could stand as a phantom
  // latency) and without consuming trials.
  const TaskState& task = session.scheduler().task(0);
  EXPECT_FALSE(task.has_best());
  ASSERT_FALSE(task.best_pool().empty());
  EXPECT_DOUBLE_EQ(task.best_pool().front().time_ms,
                   donor_best * 2.0 * topts.time_penalty);
  EXPECT_EQ(session.measurer().trials_used(), 0);
  // The adapted schedule is valid for the *new* extents and stays
  // re-measurable (not in the measured-fingerprint set).
  EXPECT_TRUE(validate_schedule(task.best_pool().front().sched,
                                hw.num_unroll_options()).empty());
  EXPECT_FALSE(task.already_measured(task.best_pool().front().sched));

  // Exact matches outrank structural ones: a session over the donor task
  // itself commits the logged time verbatim.
  Network donor_net;
  donor_net.name = "transfer_donor_net";
  donor_net.subgraphs.push_back(donor);
  TuningSession exact_session(donor_net, hw, tiny_options(PolicyKind::kHarl, 3));
  TransferStats exact_stats = transfer_history_best(exact_session, records);
  EXPECT_EQ(exact_stats.exact, 1);
  EXPECT_EQ(exact_stats.transferred, 0);
  EXPECT_DOUBLE_EQ(exact_session.scheduler().task(0).best_time_ms(), donor_best);

  // A structurally different task (elementwise) takes nothing from a GEMM log.
  Network other;
  other.name = "transfer_other";
  other.subgraphs.push_back(make_elementwise(1 << 12, 2.0, "transfer_ew"));
  TuningSession mismatch(other, hw, tiny_options(PolicyKind::kHarl, 3));
  EXPECT_EQ(transfer_history_best(mismatch, records).applied, 0);
}

// ------------------------------------------------------------ pretrained prior

TEST(PretrainedPriorTest, SessionStartsWarmFromModelFile) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 64, 64, 1, "warm_gemm");
  TempPath log("harl_test_warm.jsonl");
  TempPath model_path("harl_test_warm_model.json");
  tune_and_log(g, hw, PolicyKind::kAnsor, 88, 40, log.path);

  TaskResolver resolver = [&](const std::string&,
                              const std::string& task) -> const Subgraph* {
    return task == g.name() ? &g : nullptr;
  };
  ExperienceStore store;
  store.add_log(log.path);
  GbdtConfig cfg;
  cfg.num_trees = 10;
  Gbdt model = store.pretrain(hw, cfg, resolver);
  ASSERT_TRUE(model.trained());
  ASSERT_TRUE(save_gbdt(model, model_path.path));

  SearchOptions opts = tiny_options(PolicyKind::kHarl, 4);
  opts.experience_model = model_path.path;
  TuningSession session(g, hw, opts);
  const XgbCostModel& cm = session.scheduler().task(0).cost_model();
  EXPECT_TRUE(cm.trained());       // warm before any measurement
  EXPECT_FALSE(cm.own_trained());
  EXPECT_TRUE(cm.has_pretrained());
  EXPECT_EQ(cm.num_samples(), 0u);

  // A bad path degrades to a cold start instead of failing the run.
  SearchOptions bad = tiny_options(PolicyKind::kHarl, 4);
  bad.experience_model = "no_such_model_file.json";
  TuningSession cold(g, hw, bad);
  EXPECT_FALSE(cold.scheduler().task(0).cost_model().trained());

  // Run-identity isolation: a warm session proposes a different schedule
  // stream than the cold run that wrote the log, so resume must match
  // nothing (replaying would pair logged times with the wrong schedules).
  {
    std::vector<TuningRecord> cold_records = read_records(log.path);
    ASSERT_FALSE(cold_records.empty());
    EXPECT_EQ(cold_records.front().experience_fp, 0u);
    SearchOptions warm_opts = tiny_options(PolicyKind::kAnsor, 88);
    warm_opts.experience_model = model_path.path;
    Network net;
    net.name = "exp_" + g.name();  // same identity the log was written under
    net.subgraphs.push_back(g);
    TuningSession warm_session(net, hw, warm_opts);
    ASSERT_NE(warm_session.scheduler().experience_fingerprint(), 0u);
    ResumeStats rs = resume_session(warm_session, cold_records);
    EXPECT_EQ(rs.records_matched, 0u);
    EXPECT_EQ(rs.records_skipped, cold_records.size());
    // And the vacuous-verification guard has data to stand on.
    VerifyResumeReport vr = verify_resume(warm_session, cold_records);
    EXPECT_EQ(vr.matched, 0u);

    // A warm run's own log carries the model fingerprint and resumes into
    // an identically-warm session.
    TempPath warm_log("harl_test_warm_run.jsonl");
    RecordLogger logger;
    ASSERT_TRUE(logger.open(warm_log.path, /*append=*/false));
    warm_session.add_callback(&logger);
    warm_session.run(20);
    std::vector<TuningRecord> warm_records = read_records(warm_log.path);
    ASSERT_FALSE(warm_records.empty());
    EXPECT_EQ(warm_records.front().experience_fp,
              warm_session.scheduler().experience_fingerprint());
    TuningSession warm_again(net, hw, warm_opts);
    ResumeStats rs2 = resume_session(warm_again, warm_records);
    EXPECT_EQ(rs2.records_matched, warm_records.size());
  }

  // Fleet-wide: Options::experience_model loads once and warms every
  // workload that does not bring its own model.
  FleetTuner::Options fopts;
  fopts.max_concurrent = 1;
  fopts.experience_model = model_path.path;
  FleetTuner fleet(fopts);
  Network fleet_net;
  fleet_net.name = "exp_fleet";
  fleet_net.subgraphs.push_back(g);
  FleetWorkload w;
  w.network = fleet_net;
  w.hardware = hw;
  w.options = tiny_options(PolicyKind::kRandom, 6);
  w.trials = 10;
  // The fleet frees each session when its job ends, so observe the model
  // from inside the run.
  struct PretrainedProbe : TuningCallback {
    bool seen = false;
    bool pretrained = true;
    void on_round(const TaskScheduler& scheduler, const RoundEvent&) override {
      seen = true;
      pretrained = pretrained && scheduler.task(0).cost_model().has_pretrained();
    }
  } probe;
  w.callbacks.push_back(&probe);
  fleet.add(std::move(w));
  fleet.run();
  EXPECT_TRUE(probe.seen);
  EXPECT_TRUE(probe.pretrained);
}

// ------------------------------------------------------------ verify resume

TEST(VerifyResumeTest, CleanLogVerifiesAndTamperedLogIsCaught) {
  HardwareConfig hw = HardwareConfig::xeon_6226r();  // noisy: checks the draws
  Subgraph g = make_gemm(64, 64, 64, 1, "verify_gemm");
  Network net;
  net.name = "exp_" + g.name();
  net.subgraphs.push_back(g);
  TempPath log("harl_test_verify.jsonl");
  std::vector<TuningRecord> records =
      tune_and_log(g, hw, PolicyKind::kAnsor, 91, 40, log.path);
  ASSERT_FALSE(records.empty());

  TuningSession session(net, hw, tiny_options(PolicyKind::kAnsor, 91));
  VerifyResumeReport clean = verify_resume(session, records);
  EXPECT_GT(clean.matched, 0u);
  EXPECT_GT(clean.checked, 0u);
  EXPECT_TRUE(clean.ok());

  // Tamper with one sampled measurement: the diff report names it.
  std::vector<TuningRecord> tampered = records;
  tampered.front().time_ms *= 1.5;
  VerifyResumeReport bad = verify_resume(session, tampered);
  ASSERT_EQ(bad.mismatches.size(), 1u);
  EXPECT_EQ(bad.mismatches[0].trial_index, tampered.front().trial_index);
  EXPECT_EQ(bad.mismatches[0].logged_ms, tampered.front().time_ms);
  EXPECT_FALSE(bad.ok());

  // Foreign-identity records are not checkable.
  TuningSession other(net, hw, tiny_options(PolicyKind::kAnsor, 12345));
  VerifyResumeReport foreign = verify_resume(other, records);
  EXPECT_EQ(foreign.matched, 0u);
  EXPECT_TRUE(foreign.ok());
}

}  // namespace
}  // namespace harl
