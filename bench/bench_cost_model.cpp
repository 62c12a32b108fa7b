/// Cost-model hot-path benchmark: GBDT training and batched inference
/// throughput of the pre-sorted/histogram rewrite against the retained seed
/// implementation (`reference::ReferenceGbdt`, per-node re-sorting exact
/// greedy + per-schedule allocating extraction).
///
/// Four sections:
///   1. fit — wall time of seed vs pre-sorted exact vs histogram training
///      over growing sample counts (real extracted schedule features),
///   2. predict — 2000-candidate scoring: seed path (allocating per-schedule
///      extract + per-tree walk) vs flat batched path, serial and pooled,
///   3. combined — the acceptance headline: fit + predict_batch at
///      512 samples x 48 features x 2000 candidates, seed vs rewrite,
///   4. warm start — XgbCostModel update rounds at refit_period 1 vs 8.
///
/// Emits machine-readable `BENCH_cost_model.json` (override with --json
/// PATH) and exits non-zero if exact mode is not bit-identical to the
/// retained seed oracle (the seed algorithm with pinned tie order, see
/// tests/support/gbdt_reference.hpp), so CI runs it as a gate next to
/// `bench_parallel`.
///
/// Flags: the common set of bench_common.hpp plus --json and --candidates;
/// `--help` lists them.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "support/gbdt_reference.hpp"

namespace {

using namespace harl;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A feature matrix + labels extracted from real random schedules of a GEMM
/// task (the cost model's actual training distribution).
struct Dataset {
  std::vector<Schedule> scheds;
  std::vector<double> x;  ///< rows x kNumFeatures
  std::vector<double> y;  ///< normalized throughput labels
};

Dataset make_dataset(const FeatureExtractor& fx, const CostSimulator& sim,
                     const std::vector<Sketch>& sketches, int num_unroll,
                     std::size_t rows, std::uint64_t seed) {
  Dataset d;
  Rng rng(seed);
  d.scheds.reserve(rows);
  d.x.resize(rows * FeatureExtractor::kNumFeatures);
  d.y.resize(rows);
  std::vector<double> times(rows);
  double best = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    d.scheds.push_back(random_schedule(sketches[i % sketches.size()], num_unroll, rng));
    fx.extract_into(d.scheds.back(),
                    &d.x[i * FeatureExtractor::kNumFeatures]);
    times[i] = sim.simulate_ms(d.scheds.back());
    best = best == 0 ? times[i] : std::min(best, times[i]);
  }
  for (std::size_t i = 0; i < rows; ++i) d.y[i] = best / times[i];
  return d;
}

struct JsonWriter {
  std::string out = "{";
  bool first = true;
  void raw(const std::string& key, const std::string& value) {
    if (!first) out += ",";
    first = false;
    out += "\"" + key + "\":" + value;
  }
  void num(const std::string& key, double v) { raw(key, std::to_string(v)); }
  void boolean(const std::string& key, bool v) { raw(key, v ? "true" : "false"); }
  std::string finish() { return out + "}"; }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace harl;
  bench::BenchArgs args;
  Flags flags(bench::program_name(argv[0]));
  args.declare(&flags);
  std::string json_path = "BENCH_cost_model.json";
  std::size_t candidates = 2000;
  flags.add_string("--json", "PATH", &json_path,
                   "report path (default BENCH_cost_model.json)");
  flags.add_int("--candidates", "N", &candidates, 1, INT64_MAX,
                "candidates scored by the predict section (default 2000)");
  flags.parse(argc, argv);

  HardwareConfig hw = HardwareConfig::xeon_6226r();
  hw.noise_sigma = 0;
  CostSimulator sim(hw);
  FeatureExtractor fx(&hw);
  Subgraph gemm = make_gemm(512, 512, 512);
  auto sketches = generate_sketches(gemm);
  const int kW = FeatureExtractor::kNumFeatures;

  // --- Section 1: training throughput --------------------------------------
  Table fit_table("GBDT fit wall time (48 features, default config)");
  fit_table.set_header({"samples", "seed_s", "exact_s", "hist_s", "exact_speedup",
                        "hist_speedup"});
  double fit_seed_512 = 0, fit_exact_512 = 0;
  std::string fit_json = "[";
  for (std::size_t n : {std::size_t{128}, std::size_t{512}, std::size_t{2048}}) {
    Dataset d = make_dataset(fx, sim, sketches, hw.num_unroll_options(), n,
                             args.seed ^ n);
    GbdtConfig cfg;
    double t0 = now_seconds();
    reference::ReferenceGbdt seed_model(cfg);
    seed_model.fit(d.x, kW, d.y);
    double t1 = now_seconds();
    Gbdt exact_model(cfg);
    exact_model.fit(d.x, kW, d.y);
    double t2 = now_seconds();
    GbdtConfig hist_cfg = cfg;
    hist_cfg.split_mode = SplitMode::kHistogram;
    Gbdt hist_model(hist_cfg);
    hist_model.fit(d.x, kW, d.y);
    double t3 = now_seconds();
    double seed_s = t1 - t0, exact_s = t2 - t1, hist_s = t3 - t2;
    if (n == 512) {
      fit_seed_512 = seed_s;
      fit_exact_512 = exact_s;
    }
    fit_table.add(n, seed_s, exact_s, hist_s, seed_s / std::max(exact_s, 1e-12),
                  seed_s / std::max(hist_s, 1e-12));
    if (fit_json.size() > 1) fit_json += ",";
    fit_json += "{\"n\":" + std::to_string(n) +
                ",\"seed_s\":" + std::to_string(seed_s) +
                ",\"exact_s\":" + std::to_string(exact_s) +
                ",\"hist_s\":" + std::to_string(hist_s) + "}";
  }
  fit_json += "]";
  std::printf("%s\n", fit_table.to_string().c_str());
  args.maybe_save(fit_table, "cost_model_fit");

  // --- Section 2 + 3: inference and the combined acceptance path -----------
  const std::size_t n_train = 512;
  Dataset train = make_dataset(fx, sim, sketches, hw.num_unroll_options(), n_train,
                               args.seed ^ 0x5EEDULL);
  Dataset cand = make_dataset(fx, sim, sketches, hw.num_unroll_options(), candidates,
                              args.seed ^ 0xCA4DULL);
  GbdtConfig cfg;
  reference::ReferenceGbdt seed_model(cfg);
  double c0 = now_seconds();
  seed_model.fit(train.x, kW, train.y);
  double c1 = now_seconds();
  Gbdt fast_model(cfg);
  fast_model.fit(train.x, kW, train.y);
  double c2 = now_seconds();

  // Seed prediction path: allocate + extract per schedule, walk tree objects.
  std::vector<double> pred_seed(candidates);
  double p0 = now_seconds();
  for (std::size_t i = 0; i < candidates; ++i) {
    std::vector<double> f = fx.extract(cand.scheds[i]);
    pred_seed[i] = seed_model.predict(f.data());
  }
  double p1 = now_seconds();
  // Rewrite, serial: one flat matrix fill + flat-forest batch walk.
  std::vector<double> matrix(candidates * static_cast<std::size_t>(kW));
  std::vector<double> pred_fast(candidates);
  fx.extract_matrix_into(cand.scheds, matrix.data());
  // (matrix refilled inside the timed region; warm touch above avoids
  // first-fault noise in the comparison)
  double p2 = now_seconds();
  fx.extract_matrix_into(cand.scheds, matrix.data());
  fast_model.predict_batch(matrix.data(), candidates, pred_fast.data());
  double p3 = now_seconds();
  // Rewrite, pooled extraction + batch walk.
  ThreadPool pool(4);
  std::vector<double> pred_pool(candidates);
  double p4 = now_seconds();
  fx.extract_matrix_into(cand.scheds, matrix.data(), &pool);
  pool.parallel_for(candidates, [&](std::size_t i) {
    pred_pool[i] = fast_model.predict(&matrix[i * static_cast<std::size_t>(kW)]);
  });
  double p5 = now_seconds();

  double pred_seed_s = p1 - p0, pred_fast_s = p3 - p2, pred_pool_s = p5 - p4;
  Table pred_table("candidate scoring wall time (512-sample model)");
  pred_table.set_header({"path", "candidates", "wall_s", "cand_per_s", "speedup"});
  pred_table.add("seed per-schedule", candidates, pred_seed_s,
                 candidates / std::max(pred_seed_s, 1e-12), 1.0);
  pred_table.add("flat batch (serial)", candidates, pred_fast_s,
                 candidates / std::max(pred_fast_s, 1e-12),
                 pred_seed_s / std::max(pred_fast_s, 1e-12));
  pred_table.add("flat batch (pool=4)", candidates, pred_pool_s,
                 candidates / std::max(pred_pool_s, 1e-12),
                 pred_seed_s / std::max(pred_pool_s, 1e-12));
  std::printf("%s\n", pred_table.to_string().c_str());
  args.maybe_save(pred_table, "cost_model_predict");

  // Exact-mode gate: the rewrite must reproduce the seed oracle bit-for-bit
  // — same ensemble size, same predictions on every candidate.
  bool bitmatch = fast_model.num_trees_fit() == seed_model.num_trees_fit();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < candidates; ++i) {
    if (pred_fast[i] != pred_seed[i]) ++mismatches;
    if (pred_fast[i] != pred_pool[i]) ++mismatches;  // pooled == serial too
  }
  bitmatch = bitmatch && mismatches == 0;

  double combined_seed = (c1 - c0) + pred_seed_s;
  double combined_new = (c2 - c1) + pred_fast_s;
  double combined_speedup = combined_seed / std::max(combined_new, 1e-12);
  std::printf("combined fit + predict_batch (512 x 48 x %zu): seed %.4fs, "
              "rewrite %.4fs, speedup %.1fx\n",
              candidates, combined_seed, combined_new, combined_speedup);
  std::printf("exact-mode bit-identical to seed: %s\n\n",
              bitmatch ? "yes" : "NO");

  // --- Section 4: warm-start update rounds ----------------------------------
  auto run_updates = [&](int refit_period) {
    CostModelConfig cm;
    cm.refit_period = refit_period;
    cm.warm_trees = 8;
    XgbCostModel model(&hw, cm);
    Rng rng(args.seed ^ 0xFEEDULL);
    // Pre-generate identical measurement rounds for both configurations.
    double wall = 0;
    for (int round = 0; round < 10; ++round) {
      std::vector<Schedule> ss;
      std::vector<double> ts;
      for (int i = 0; i < 64; ++i) {
        ss.push_back(random_schedule(sketches[static_cast<std::size_t>(i) % sketches.size()],
                                     hw.num_unroll_options(), rng));
        ts.push_back(sim.simulate_ms(ss.back()));
      }
      double t0u = now_seconds();
      model.update(ss, ts);
      wall += now_seconds() - t0u;
    }
    return wall;
  };
  double refit1_s = run_updates(1);
  double refit8_s = run_updates(8);
  Table warm_table("10 cost-model update rounds (64 new rows each)");
  warm_table.set_header({"refit_period", "wall_s", "speedup"});
  warm_table.add(1, refit1_s, 1.0);
  warm_table.add(8, refit8_s, refit1_s / std::max(refit8_s, 1e-12));
  std::printf("%s\n", warm_table.to_string().c_str());
  args.maybe_save(warm_table, "cost_model_warm_start");

  // --- Machine-readable summary ---------------------------------------------
  JsonWriter json;
  json.raw("samples", std::to_string(n_train));
  json.raw("features", std::to_string(kW));
  json.raw("candidates", std::to_string(candidates));
  json.raw("fit", fit_json);
  json.raw("predict", "{\"seed_s\":" + std::to_string(pred_seed_s) +
                          ",\"flat_serial_s\":" + std::to_string(pred_fast_s) +
                          ",\"flat_pool_s\":" + std::to_string(pred_pool_s) + "}");
  json.raw("combined", "{\"seed_s\":" + std::to_string(combined_seed) +
                           ",\"new_s\":" + std::to_string(combined_new) +
                           ",\"speedup\":" + std::to_string(combined_speedup) + "}");
  json.raw("warm_start", "{\"refit1_s\":" + std::to_string(refit1_s) +
                             ",\"refit8_s\":" + std::to_string(refit8_s) +
                             ",\"speedup\":" +
                             std::to_string(refit1_s / std::max(refit8_s, 1e-12)) +
                             "}");
  json.num("fit_seed_512_s", fit_seed_512);
  json.num("fit_exact_512_s", fit_exact_512);
  json.boolean("exact_bitmatch", bitmatch);
  std::string payload = json.finish();
  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", payload.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
  }

  std::printf("exact-mode gate: %s\n", bitmatch ? "PASS" : "FAIL");
  return bitmatch ? 0 : 1;
}
