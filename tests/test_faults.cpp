#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/presets.hpp"
#include "core/tuning.hpp"
#include "cost/gbdt_io.hpp"
#include "exp/compact.hpp"
#include "exp/experience.hpp"
#include "hwsim/fault_injector.hpp"
#include "hwsim/measurer.hpp"
#include "io/async_bus.hpp"
#include "io/record_io.hpp"
#include "io/record_logger.hpp"
#include "io/resume.hpp"
#include "io/safe_file.hpp"
#include "serve/knowledge_cache.hpp"
#include "util/rng.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

/// RAII temp file (removes companions the test may create too).
struct TempPath {
  explicit TempPath(std::string p) : path(std::move(p)) { cleanup(); }
  ~TempPath() { cleanup(); }
  void cleanup() {
    std::remove(path.c_str());
    std::remove((path + ".quarantine").c_str());
  }
  std::string path;
};

std::string slurp(const std::string& path) {
  std::string text, error;
  EXPECT_TRUE(read_text_file(path, &text, &error)) << error;
  return text;
}

void spit(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
}

std::size_t count_substr(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// --------------------------------------------------------------- spec parse

TEST(FaultSpec, ParseRoundTripAndNone) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::parse("transient=0.1,timeout=0.05,garbage=0.02,crash=120:77",
                               &spec, &error))
      << error;
  EXPECT_DOUBLE_EQ(spec.transient, 0.1);
  EXPECT_DOUBLE_EQ(spec.timeout, 0.05);
  EXPECT_DOUBLE_EQ(spec.garbage, 0.02);
  EXPECT_EQ(spec.crash_at_trial, 120);
  EXPECT_EQ(spec.seed, 77u);
  EXPECT_TRUE(spec.any());

  // The canonical form round-trips to an identical spec.
  FaultSpec again;
  ASSERT_TRUE(FaultSpec::parse(spec.to_string(), &again, &error)) << error;
  EXPECT_EQ(again.to_string(), spec.to_string());

  FaultSpec none;
  ASSERT_TRUE(FaultSpec::parse("none", &none, &error)) << error;
  EXPECT_FALSE(none.any());
  ASSERT_TRUE(FaultSpec::parse("none:5", &none, &error)) << error;
  EXPECT_FALSE(none.any());
  EXPECT_EQ(none.seed, 5u);
}

TEST(FaultSpec, ParseRejectsBadSpecs) {
  FaultSpec spec;
  std::string error;
  for (const char* bad : {"", "transient=1.5", "transient=-0.1", "bogus=0.1",
                          "transient=abc", "transient=0.7,timeout=0.6",
                          "transient", "crash=-2"}) {
    error.clear();
    EXPECT_FALSE(FaultSpec::parse(bad, &spec, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// ----------------------------------------------------------------- injector

TEST(FaultInjector, DecisionsAreDeterministicAndRateSane) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::parse("transient=0.3,timeout=0.1:12345", &spec, &error));
  FaultInjector a(spec), b(spec);

  std::size_t transient = 0, timeout = 0;
  for (std::int64_t trial = 0; trial < 10000; ++trial) {
    FaultKind ka = a.decide(trial, 0xfeedfaceu, 0);
    EXPECT_EQ(ka, b.decide(trial, 0xfeedfaceu, 0));  // pure in its inputs
    if (ka == FaultKind::kTransient) ++transient;
    if (ka == FaultKind::kTimeout) ++timeout;
  }
  // The decision stream is seeded; rates land near the spec.
  EXPECT_NEAR(static_cast<double>(transient) / 10000.0, 0.3, 0.03);
  EXPECT_NEAR(static_cast<double>(timeout) / 10000.0, 0.1, 0.02);
  EXPECT_EQ(a.injected_transient(), transient);
  EXPECT_EQ(a.injected_timeout(), timeout);
  EXPECT_EQ(a.injected_total(), transient + timeout);

  // Different attempts of the same trial draw independently (retry can win).
  bool attempt_differs = false;
  for (std::int64_t trial = 0; trial < 200 && !attempt_differs; ++trial) {
    attempt_differs = a.decide(trial, 1, 0) != a.decide(trial, 1, 1);
  }
  EXPECT_TRUE(attempt_differs);

  // Garbage latencies are rejected by any validity gate.
  FaultSpec gspec;
  ASSERT_TRUE(FaultSpec::parse("garbage=1.0:9", &gspec, &error));
  FaultInjector g(gspec);
  for (std::int64_t trial = 0; trial < 64; ++trial) {
    double ms = g.garbage_latency(trial, 7, 0);
    EXPECT_FALSE(std::isfinite(ms) && ms > 0) << ms;
    double again = g.garbage_latency(trial, 7, 0);  // deterministic, bitwise
    EXPECT_TRUE(std::memcmp(&ms, &again, sizeof ms) == 0);
  }
}

// ----------------------------------------------------------------- measurer

struct FaultMeasureFixture : ::testing::Test {
  FaultMeasureFixture()
      : hw([] {
          HardwareConfig h = HardwareConfig::test_config();
          h.noise_sigma = 0.05;
          return h;
        }()),
        sim(hw),
        graph(make_gemm(32, 32, 32)),
        sketches(generate_sketches(graph)) {}

  std::vector<Schedule> distinct_schedules(std::size_t count, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Schedule> out;
    std::unordered_set<std::uint64_t> fps;
    while (out.size() < count) {
      Schedule s = random_schedule(sketches[0], hw.num_unroll_options(), rng);
      if (fps.insert(s.fingerprint()).second) out.push_back(s);
    }
    return out;
  }

  HardwareConfig hw;
  CostSimulator sim;
  Subgraph graph;
  std::vector<Sketch> sketches;
};

TEST_F(FaultMeasureFixture, PersistentFailureConsumesTrialThenQuarantines) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::parse("transient=1.0:3", &spec, &error));
  FaultInjector inj(spec);

  Measurer m(&sim, 7);
  m.enable_cache(64);
  m.set_fault_injector(&inj);
  Schedule s = distinct_schedules(1, 1)[0];

  MeasureResult first = m.measure_one(s);
  EXPECT_EQ(first.status, MeasureStatus::kTransient);
  EXPECT_TRUE(first.failed());
  EXPECT_TRUE(std::isinf(first.time_ms));  // never a fabricated latency
  EXPECT_EQ(m.trials_used(), 1);           // a failure still costs its trial
  EXPECT_EQ(m.retries(), 2);               // max_attempts=3 -> 2 retries
  EXPECT_FALSE(m.cache().lookup(s.fingerprint()).has_value());

  MeasureResult second = m.measure_one(s);
  EXPECT_EQ(second.status, MeasureStatus::kTransient);
  EXPECT_EQ(m.trials_used(), 2);
  EXPECT_EQ(m.failed(), 2);
  EXPECT_EQ(m.quarantined_schedules(), 1u);  // quarantine_after=2

  MeasureResult third = m.measure_one(s);
  EXPECT_EQ(third.status, MeasureStatus::kQuarantined);
  EXPECT_EQ(m.trials_used(), 2);  // quarantine refusals are free
  EXPECT_EQ(m.quarantine_hits(), 1);
  EXPECT_TRUE(m.is_quarantined(s.fingerprint()));
  EXPECT_GT(m.backoff_ms_total(), 0.0);  // accounted, deterministic
}

TEST_F(FaultMeasureFixture, RecoveredRetriesMatchFaultFreeBitwise) {
  std::vector<Schedule> scheds = distinct_schedules(24, 2);

  Measurer clean(&sim, 7);
  std::vector<MeasureResult> want = clean.measure_batch_results(scheds);

  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::parse("transient=0.4,garbage=0.1:11", &spec, &error));
  FaultInjector inj(spec);
  Measurer faulty(&sim, 7);
  faulty.set_fault_injector(&inj);
  std::vector<MeasureResult> got = faulty.measure_batch_results(scheds);

  ASSERT_EQ(got.size(), want.size());
  std::size_t ok = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].failed()) continue;
    ++ok;
    // A measurement that recovered on retry reports the same noisy latency
    // the fault-free run produced — bitwise.
    EXPECT_EQ(got[i].time_ms, want[i].time_ms) << i;
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(faulty.recovered(), 0);  // at least one success needed a retry
  EXPECT_EQ(faulty.trials_used(), clean.trials_used());

  // Same spec + seed -> the same measurements fail, bit-identically.
  FaultInjector inj2(spec);
  Measurer twin(&sim, 7);
  twin.set_fault_injector(&inj2);
  std::vector<MeasureResult> again = twin.measure_batch_results(scheds);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(again[i].status, got[i].status) << i;
    EXPECT_EQ(again[i].time_ms, got[i].time_ms) << i;
  }
}

// ------------------------------------------------------------ session level

Network faults_network() {
  Network net;
  net.name = "faults_tiny";
  net.subgraphs.push_back(make_gemm(128, 128, 128, 1, "g_big", 4.0));
  net.subgraphs.push_back(make_gemm(64, 64, 64, 1, "g_small", 1.0));
  net.subgraphs.push_back(make_elementwise(1 << 14, 2.0, "ew", 2.0));
  return net;
}

SearchOptions faults_options(std::uint64_t seed = 5) {
  SearchOptions opts = quick_options(PolicyKind::kHarl, seed);
  opts.harl.stop.initial_tracks = 8;
  opts.harl.stop.min_tracks = 2;
  opts.harl.stop.window = 4;
  opts.harl.ppo.minibatch_size = 16;
  opts.harl.ppo.update_epochs = 1;
  opts.measures_per_round = 5;
  return opts;
}

HardwareConfig faults_hw() {
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  hw.noise_sigma = 0.05;
  return hw;
}

/// One faulty tuning run logged to `path` (appending over what is there).
void run_faulty(const std::string& path, const FaultSpec& spec,
                std::int64_t trials, std::int64_t* trials_spent_sum = nullptr,
                std::int64_t* failed_sum = nullptr) {
  TuningSession session(faults_network(), faults_hw(), faults_options());
  FaultInjector inj(spec);
  session.measurer().set_fault_injector(&inj);
  std::vector<RecordReadError> errors;
  resume_session(session, path);
  RecordLogger logger;
  ASSERT_TRUE(logger.open(path, /*append=*/true));
  logger.set_skip(read_records(path, &errors).size());
  session.add_callback(&logger);
  session.run(trials);
  if (trials_spent_sum != nullptr) {
    *trials_spent_sum = 0;
    for (int i = 0; i < session.scheduler().num_tasks(); ++i) {
      *trials_spent_sum += session.scheduler().task(i).trials_spent();
    }
  }
  if (failed_sum != nullptr) {
    *failed_sum = 0;
    for (int i = 0; i < session.scheduler().num_tasks(); ++i) {
      *failed_sum += session.scheduler().task(i).failed_measurements();
    }
  }
}

TEST(SessionFaults, TwinRunsByteIdenticalAndAccountingHolds) {
  TempPath a("faults_twin_a.jsonl"), b("faults_twin_b.jsonl");
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::parse("transient=0.6,timeout=0.1,garbage=0.1:77", &spec,
                               &error));

  std::int64_t spent = 0, failed = 0;
  run_faulty(a.path, spec, 60, &spent, &failed);
  run_faulty(b.path, spec, 60);

  std::string log_a = slurp(a.path);
  EXPECT_EQ(log_a, slurp(b.path));  // same spec + seed -> same bytes
  EXPECT_GT(failed, 0);             // the rates above guarantee failures
  EXPECT_EQ(count_substr(log_a, "\"fail\""), static_cast<std::size_t>(failed));

  // Trial invariant: per-task spend equals the measurer's global counter —
  // here checked against the budget the run was given.
  EXPECT_EQ(spent, 60);
}

TEST(SessionFaults, CrashResumeUnderFaultsIsBitIdentical) {
  TempPath full("faults_full.jsonl"), part("faults_part.jsonl");
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::parse("transient=0.5,garbage=0.1:99", &spec, &error));

  run_faulty(full.path, spec, 60);
  std::string whole = slurp(full.path);

  // Emulate the crash: keep only the first half of the log's lines (a crash
  // loses whole uncommitted rounds; any line prefix is a valid crash state
  // because the logger appends line-atomically), then resume.
  std::size_t lines = 0, cut = std::string::npos;
  std::size_t total_lines = count_substr(whole, "\n");
  for (std::size_t i = 0; i < whole.size(); ++i) {
    if (whole[i] == '\n' && ++lines == total_lines / 2) {
      cut = i + 1;
      break;
    }
  }
  ASSERT_NE(cut, std::string::npos);
  spit(part.path, whole.substr(0, cut));

  run_faulty(part.path, spec, 60);
  EXPECT_EQ(slurp(part.path), whole);  // resumed tail == uninterrupted tail
}

// ------------------------------------------------------------- record field

TEST(FailField, JsonRoundTripAndAbsentWhenHealthy) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 64, 64);
  std::vector<Sketch> sketches = generate_sketches(g);
  Rng rng(3);
  Schedule s = random_schedule(sketches[0], hw.num_unroll_options(), rng);

  TuningRecord rec;
  rec.network = "netA";
  rec.task = g.name();
  rec.hardware_fp = hw.fingerprint();
  rec.policy = "test";
  rec.seed = 3;
  rec.sketch_id = sketches[0].sketch_id;
  rec.sketch_tag = sketches[0].tag;
  rec.stages = decisions_from_schedule(s);
  rec.time_ms = 1.5;
  rec.trial_index = 9;

  // Healthy records serialize without the field at all — logs stay
  // byte-identical to the pre-fault-support schema.
  std::string healthy = record_to_json(rec);
  EXPECT_EQ(healthy.find("\"fail\""), std::string::npos);

  rec.fail = "transient";
  rec.time_ms = 0;
  std::string line = record_to_json(rec);
  EXPECT_NE(line.find("\"fail\":\"transient\""), std::string::npos);
  TuningRecord back;
  std::string error;
  ASSERT_TRUE(record_from_json(line, &back, &error)) << error;
  EXPECT_EQ(back, rec);
  EXPECT_EQ(record_to_json(back), line);
}

// ------------------------------------------------------------ checksummed IO

TEST(ChecksumFooter, RoundTripAndTamperDetection) {
  std::string body = "{\"k\":1}\n";
  std::string with = with_checksum_footer(body);
  ASSERT_NE(with.find(kChecksumFooterPrefix), std::string::npos);

  std::string text = with, error;
  ASSERT_TRUE(strip_checksum_footer(&text, &error)) << error;
  EXPECT_EQ(text, body);

  text = body;  // no footer at all
  EXPECT_FALSE(strip_checksum_footer(&text, &error));
  EXPECT_NE(error.find("missing checksum footer"), std::string::npos);

  text = with;
  text[2] ^= 0x20;  // flip a body bit
  EXPECT_FALSE(strip_checksum_footer(&text, &error));
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos);
}

TEST(CorruptionFuzz, ModelAndCacheLoadersRejectDeterministically) {
  // A real trained model and a real cache, written through the hardened
  // savers (checksum footer + atomic publish).
  TempPath model_path("faults_fuzz_model.json");
  TempPath cache_path("faults_fuzz_cache.json");

  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 64, 64);
  std::vector<Sketch> sketches = generate_sketches(g);
  KnowledgeCache cache;
  ExperienceStore store;
  std::vector<TuningRecord> recs;
  for (int i = 0; i < 24; ++i) {
    Rng rng(static_cast<std::uint64_t>(i + 1));
    Schedule s = random_schedule(sketches[0], hw.num_unroll_options(), rng);
    TuningRecord rec;
    rec.network = "bert_b1";
    rec.task = "GEMM-I";
    rec.hardware_fp = hw.fingerprint();
    rec.policy = "test";
    rec.seed = 1;
    rec.sketch_id = sketches[0].sketch_id;
    rec.sketch_tag = sketches[0].tag;
    rec.stages = decisions_from_schedule(s);
    rec.time_ms = 1.0 + 0.1 * i;
    rec.trial_index = i;
    recs.push_back(rec);
    cache.insert(rec);
  }
  store.add_records(recs);
  GbdtConfig cfg;
  cfg.num_trees = 4;
  Gbdt model = store.pretrain(hw, cfg, make_builtin_resolver());

  std::string error;
  ASSERT_TRUE(save_gbdt(model, model_path.path, &error)) << error;
  ASSERT_TRUE(save_cache(cache, cache_path.path, &error)) << error;

  // Sanity: the intact files load.
  Gbdt loaded_model;
  KnowledgeCache loaded_cache;
  ASSERT_TRUE(load_gbdt(model_path.path, &loaded_model, &error)) << error;
  ASSERT_TRUE(load_cache(cache_path.path, &loaded_cache, &error)) << error;

  auto fuzz = [&](const std::string& path, auto&& try_load) {
    const std::string good = slurp(path);
    // Truncations: every one must be rejected (the footer is the last line,
    // so any cut either loses it or breaks the checksum).
    for (std::size_t keep :
         {std::size_t{0}, good.size() / 4, good.size() / 2, good.size() - 1,
          good.size() - 13}) {
      spit(path, good.substr(0, keep));
      error.clear();
      EXPECT_FALSE(try_load()) << path << " truncated to " << keep;
      EXPECT_FALSE(error.empty());
    }
    // Single-bit flips: CRC-32 detects every one of them.
    for (std::size_t pos = 0; pos < good.size(); pos += good.size() / 13 + 1) {
      std::string bad = good;
      bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
      spit(path, bad);
      error.clear();
      EXPECT_FALSE(try_load()) << path << " bit flip at " << pos;
      EXPECT_FALSE(error.empty());
      EXPECT_NE(error.find(path), std::string::npos);  // path-prefixed reason
    }
    spit(path, good);
  };

  fuzz(model_path.path, [&] {
    Gbdt m;
    return load_gbdt(model_path.path, &m, &error);
  });
  fuzz(cache_path.path, [&] {
    KnowledgeCache c;
    return load_cache(cache_path.path, &c, &error);
  });
}

// -------------------------------------------------------------- log salvage

std::vector<TuningRecord> salvage_records(const Subgraph& g,
                                          const std::vector<Sketch>& sketches,
                                          const HardwareConfig& hw, int n) {
  std::vector<TuningRecord> recs;
  for (int i = 0; i < n; ++i) {
    Rng rng(static_cast<std::uint64_t>(i + 50));
    Schedule s = random_schedule(sketches[0], hw.num_unroll_options(), rng);
    TuningRecord rec;
    rec.network = "netS";
    rec.task = g.name();
    rec.hardware_fp = hw.fingerprint();
    rec.policy = "test";
    rec.seed = 1;
    rec.sketch_id = sketches[0].sketch_id;
    rec.sketch_tag = sketches[0].tag;
    rec.stages = decisions_from_schedule(s);
    rec.time_ms = 1.0 + i;
    rec.trial_index = i;
    recs.push_back(rec);
  }
  return recs;
}

TEST(Salvage, MidFileCorruptionKeepsPrefixAndQuarantinesOriginal) {
  TempPath log("faults_salvage.jsonl");
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(32, 32, 32);
  std::vector<Sketch> sketches = generate_sketches(g);
  std::vector<TuningRecord> recs = salvage_records(g, sketches, hw, 5);

  std::string prefix;
  for (int i = 0; i < 3; ++i) prefix += record_to_json(recs[static_cast<std::size_t>(i)]) + "\n";
  std::string tail;
  for (int i = 3; i < 5; ++i) tail += record_to_json(recs[static_cast<std::size_t>(i)]) + "\n";
  std::string original = prefix + "{\"corrupt\": \n" + tail;
  spit(log.path, original);

  SalvageResult sv = salvage_log(log.path);
  EXPECT_TRUE(sv.attempted);
  EXPECT_TRUE(sv.salvaged);
  EXPECT_EQ(sv.lines_kept, 3u);
  EXPECT_EQ(sv.lines_dropped, 3u);  // corrupt line + everything after it
  EXPECT_EQ(sv.quarantine_path, log.path + ".quarantine");

  EXPECT_EQ(slurp(log.path), prefix);          // byte-exact valid prefix
  EXPECT_EQ(slurp(sv.quarantine_path), original);  // evidence preserved

  std::vector<RecordReadError> errors;
  EXPECT_EQ(read_records(log.path, &errors).size(), 3u);
  EXPECT_TRUE(errors.empty());

  // Idempotent: a healthy file is left untouched.
  SalvageResult again = salvage_log(log.path);
  EXPECT_TRUE(again.attempted);
  EXPECT_FALSE(again.salvaged);
  EXPECT_EQ(slurp(log.path), prefix);
}

TEST(Salvage, TornTailAndMissingFileAreLeftAlone) {
  TempPath log("faults_torn.jsonl");

  SalvageResult missing = salvage_log(log.path);
  EXPECT_FALSE(missing.attempted);  // no file, nothing to heal

  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(32, 32, 32);
  std::vector<Sketch> sketches = generate_sketches(g);
  std::vector<TuningRecord> recs = salvage_records(g, sketches, hw, 2);
  std::string text = record_to_json(recs[0]) + "\n" + record_to_json(recs[1]) + "\n";
  text += "{\"torn";  // a write cut mid-line, no newline
  spit(log.path, text);

  SalvageResult sv = salvage_log(log.path);
  EXPECT_TRUE(sv.attempted);
  EXPECT_FALSE(sv.salvaged);  // the tolerant reader already handles torn tails
  EXPECT_EQ(slurp(log.path), text);

  // The reader sees the two whole records and reports the fragment.
  std::vector<RecordReadError> errors;
  EXPECT_EQ(read_records(log.path, &errors).size(), 2u);
  EXPECT_EQ(errors.size(), 1u);
}

// ----------------------------------------------------- failure exclusion

TEST(FailedRecords, ExcludedFromTrainingServingAndCompaction) {
  HardwareConfig hw = HardwareConfig::test_config();
  Subgraph g = make_gemm(64, 64, 64);
  std::vector<Sketch> sketches = generate_sketches(g);
  std::vector<TuningRecord> recs = salvage_records(g, sketches, hw, 6);
  recs[2].fail = "timeout";
  recs[2].time_ms = 0;

  // Training: the failed row is dropped from the harvested dataset.
  ExperienceStore store;
  store.add_records(recs);
  HarvestStats stats;
  ExperienceDataset ds = store.build_dataset(
      hw, [&](const std::string&, const std::string&) { return &g; }, &stats);
  EXPECT_EQ(ds.rows, 5u);

  // Serving: the cache refuses the record and counts the rejection.
  KnowledgeCache cache;
  EXPECT_FALSE(cache.insert(recs[2]));
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_EQ(cache.num_records(), 0u);

  // Compaction: best-k never keeps a failed record (time 0 would otherwise
  // outrank everything); only the recency window can carry one.
  CompactOptions copts;
  copts.best_k = 2;
  copts.window = 0;
  std::vector<TuningRecord> kept = compact_records(recs, copts);
  ASSERT_EQ(kept.size(), 2u);
  for (const TuningRecord& r : kept) EXPECT_TRUE(r.fail.empty());
}

// ------------------------------------------------------------ on_failure

struct FailureTrace : TuningCallback {
  std::mutex mu;
  std::vector<FailureEvent> fails;
  void on_failure(const TaskScheduler&, const FailureEvent& f) override {
    std::lock_guard<std::mutex> lock(mu);
    fails.push_back(f);
  }
};

TEST(OnFailure, DeliveredSyncAndAsyncIdentically) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::parse("transient=0.6,timeout=0.2:21", &spec, &error));

  auto run_traced = [&](bool async) {
    TuningSession session(faults_network(), faults_hw(), faults_options());
    FaultInjector inj(spec);
    session.measurer().set_fault_injector(&inj);
    FailureTrace trace;
    std::unique_ptr<AsyncCallbackBus> bus;
    if (async) {
      bus = std::make_unique<AsyncCallbackBus>();
      bus->add(&trace);
      session.add_callback(bus.get());
    } else {
      session.add_callback(&trace);
    }
    session.run(60);
    std::int64_t failed = 0;
    for (int i = 0; i < session.scheduler().num_tasks(); ++i) {
      failed += session.scheduler().task(i).failed_measurements();
    }
    EXPECT_EQ(static_cast<std::int64_t>(trace.fails.size()), failed);
    return trace.fails;
  };

  std::vector<FailureEvent> sync_fails = run_traced(false);
  std::vector<FailureEvent> async_fails = run_traced(true);
  ASSERT_GT(sync_fails.size(), 0u);
  ASSERT_EQ(async_fails.size(), sync_fails.size());
  for (std::size_t i = 0; i < sync_fails.size(); ++i) {
    EXPECT_EQ(async_fails[i].task, sync_fails[i].task) << i;
    EXPECT_EQ(async_fails[i].trial_index, sync_fails[i].trial_index) << i;
    EXPECT_EQ(async_fails[i].schedule_fp, sync_fails[i].schedule_fp) << i;
    EXPECT_EQ(async_fails[i].status, sync_fails[i].status) << i;
    EXPECT_NE(async_fails[i].status, MeasureStatus::kOk) << i;
  }
}

}  // namespace
}  // namespace harl
