/// Parallel-engine benchmark: batch-measurement scaling and serial-vs-parallel
/// determinism.
///
/// Three sections:
///   1. batch scaling — throughput of `Measurer::measure_batch` over pools of
///      1..N threads (speedup vs 1 thread; >= 2x at 4 threads on >= 4 cores),
///   2. determinism — batch results and full `TaskScheduler::round_log()`
///      bit-identical between a 1-thread (serial) pool and a multi-thread
///      pool for the same seed,
///   3. cache — trial savings from the measure cache on a duplicate-heavy
///      batch stream.
///
/// Exits non-zero if any determinism check fails, so CI can run it as a gate.
///
/// Flags: the common set of bench_common.hpp plus --threads to cap the
/// scaling sweep; `--help` lists them.

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace harl;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<Schedule> make_batch(const Sketch& sketch, int num_unroll,
                                 std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Schedule> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(random_schedule(sketch, num_unroll, rng));
  }
  return batch;
}

/// Section 1: measure_batch wall time over thread counts.
bool bench_scaling(const bench::BenchArgs& args, std::size_t max_threads) {
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  hw.noise_sigma = 0.05;
  CostSimulator sim(hw);
  Subgraph gemm = make_gemm(512, 512, 512);
  auto sketches = generate_sketches(gemm);
  const std::size_t batch_size = 256;
  const int repeats = 4;
  std::vector<Schedule> batch =
      make_batch(sketches[0], hw.num_unroll_options(), batch_size, args.seed);

  Table table("batch measurement scaling (batch=256, repeats=4)");
  table.set_header({"threads", "wall_s", "sched_per_s", "speedup", "identical"});

  std::vector<double> reference;  // 1-thread results
  double base_wall = 0;
  bool all_identical = true;
  for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
    ThreadPool pool(threads);
    Measurer m(&sim, args.seed ^ 0xBEEFULL);
    m.set_pool(&pool);
    std::vector<double> last;
    double t0 = now_seconds();
    for (int r = 0; r < repeats; ++r) {
      m.reset_trials();  // same trial indices every repeat -> same noise
      last = m.measure_batch(batch);
    }
    double wall = now_seconds() - t0;
    bool identical = true;
    if (threads == 1) {
      reference = last;
      base_wall = wall;
    } else {
      identical = (last == reference);
      all_identical &= identical;
    }
    double speedup = wall > 0 ? base_wall / wall : 0;
    table.add(threads, wall, repeats * static_cast<double>(batch_size) / wall,
              speedup, identical ? "yes" : "NO");
  }
  std::printf("%s\n", table.to_string().c_str());
  args.maybe_save(table, "parallel_scaling");
  return all_identical;
}

/// Section 2: a full tuning run replays bit-identically under parallelism.
bool bench_determinism(const bench::BenchArgs& args) {
  std::int64_t trials = args.trials > 0 ? args.trials : 200;

  auto run_one = [&](ThreadPool* pool) {
    SearchOptions opts = args.options(PolicyKind::kHarl);
    opts.pool = pool;
    TuningSession session(make_bert(1), HardwareConfig::xeon_6226r(), opts);
    session.run(trials);
    return std::make_pair(session.scheduler().round_log(),
                          session.latency_ms());
  };

  ThreadPool serial(1), wide(4);
  auto t0 = now_seconds();
  auto [log_serial, lat_serial] = run_one(&serial);
  auto t1 = now_seconds();
  auto [log_wide, lat_wide] = run_one(&wide);
  auto t2 = now_seconds();

  bool identical = lat_serial == lat_wide && log_serial.size() == log_wide.size();
  if (identical) {
    for (std::size_t i = 0; i < log_serial.size(); ++i) {
      identical &= log_serial[i].task == log_wide[i].task &&
                   log_serial[i].trials_after == log_wide[i].trials_after &&
                   log_serial[i].net_latency_ms == log_wide[i].net_latency_ms;
    }
  }

  Table table("tuning determinism (bert, HARL)");
  table.set_header({"pool", "rounds", "latency_ms", "wall_s"});
  table.add("serial(1)", log_serial.size(), lat_serial, t1 - t0);
  table.add("parallel(4)", log_wide.size(), lat_wide, t2 - t1);
  std::printf("%s\n", table.to_string().c_str());
  std::printf("round_log bit-identical: %s\n\n", identical ? "yes" : "NO");
  args.maybe_save(table, "parallel_determinism");
  return identical;
}

/// Section 3: measure-cache effect on a duplicate-heavy stream.
void bench_cache(const bench::BenchArgs& args) {
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  hw.noise_sigma = 0.05;
  CostSimulator sim(hw);
  Subgraph gemm = make_gemm(256, 256, 256);
  auto sketches = generate_sketches(gemm);
  // 64 distinct schedules, each requested 8 times.
  std::vector<Schedule> uniques =
      make_batch(sketches[0], hw.num_unroll_options(), 64, args.seed ^ 0xCAFEULL);

  Table table("measure cache on an 8x-repeated batch (512 requests)");
  table.set_header({"cache", "trials", "hits", "wall_s"});
  for (std::size_t capacity : {std::size_t{0}, std::size_t{4096}}) {
    Measurer m(&sim, args.seed);
    m.enable_cache(capacity);
    double t0 = now_seconds();
    for (int rep = 0; rep < 8; ++rep) m.measure_batch(uniques);
    double wall = now_seconds() - t0;
    table.add(capacity == 0 ? "off" : "on", m.trials_used(), m.cache().hits(),
              wall);
  }
  std::printf("%s\n", table.to_string().c_str());
  args.maybe_save(table, "parallel_cache");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace harl;
  bench::BenchArgs args;
  Flags flags(bench::program_name(argv[0]));
  args.declare(&flags);
  std::int64_t max_threads = 8;
  flags.add_int("--threads", "N", &max_threads, 1, 256,
                "largest pool of the scaling sweep (default 8)");
  flags.parse(argc, argv);

  bool ok = bench_scaling(args, static_cast<std::size_t>(max_threads));
  ok &= bench_determinism(args);
  bench_cache(args);

  std::printf("determinism: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
