/// Async callback bus benchmark + acceptance gate: does a slow consumer
/// stall the tuning hot loop?
///
/// Three identically-seeded runs of the same workload:
///   1. baseline — no callbacks,
///   2. sync     — a RecordLogger plus a deliberately slow consumer
///                 (sleeps 10 ms per record batch) on the tuning thread,
///   3. async    — the same consumers registered on an AsyncCallbackBus
///                 that the run builds and registers on its session.
///
/// Gates (non-zero exit so CI can run this as a check):
///   - exit 2: determinism — round_log, per-task bests, and the record-log
///     bytes must be bit-identical across all three modes (the bus must
///     observe, never influence),
///   - exit 1: latency — the async run's median per-round wall time must
///     stay within 10% (+1 ms scheduling slack) of the no-callback
///     baseline, while the sync run must demonstrably degrade (>= half the
///     injected sleep per round).  The post-run drain is reported
///     separately: async defers slow work, it does not delete it.
///
/// Emits BENCH_callback_bus.json.
///
/// Flags: --trials N (rounds here) --seed S --paper --csv DIR
/// (see bench_common.hpp).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace harl;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int kSleepMsPerBatch = 10;

/// The pathological consumer: a logger/uploader that takes 10 ms per batch.
struct SlowConsumer : TuningCallback {
  void on_records(const TaskScheduler&, int,
                  const std::vector<MeasuredRecord>&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(kSleepMsPerBatch));
  }
};

Network bench_network() {
  Network net;
  net.name = "bus_bench";
  net.subgraphs.push_back(make_gemm(256, 256, 256, 1, "g_a", 2.0));
  net.subgraphs.push_back(make_gemm(128, 128, 128, 1, "g_b", 1.0));
  return net;
}

struct RunResult {
  std::vector<double> round_seconds;
  std::vector<TaskScheduler::RoundLog> round_log;
  std::vector<double> bests;
  std::string log_bytes;
  double drain_seconds = 0;

  double median_round_ms() const {
    std::vector<double> s = round_seconds;
    std::sort(s.begin(), s.end());
    return s.empty() ? 0 : s[s.size() / 2] * 1e3;
  }
};

std::string slurp(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

enum class Mode { kBaseline, kSync, kAsync };

RunResult run_mode(Mode mode, const SearchOptions& base_opts, int rounds,
                   const std::string& log_path) {
  Network net = bench_network();
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  TuningSession session(net, hw, base_opts);
  SlowConsumer slow;
  RecordLogger logger;
  // Declared after the consumers, so it is destroyed (drained) first.
  // Ample capacity: the gate measures hot-loop decoupling, not backpressure.
  std::unique_ptr<AsyncCallbackBus> bus;
  if (mode == Mode::kAsync) {
    bus = std::make_unique<AsyncCallbackBus>(4096);
    session.add_callback(bus.get());
  }
  if (mode != Mode::kBaseline) {
    std::remove(log_path.c_str());
    if (!logger.open(log_path, /*append=*/false)) {
      std::fprintf(stderr, "cannot open %s\n", log_path.c_str());
      std::exit(3);
    }
    if (bus != nullptr) {
      bus->add(&logger);
      bus->add(&slow);
    } else {
      session.add_callback(&logger);
      session.add_callback(&slow);
    }
  }

  RunResult out;
  out.round_seconds.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    double t0 = now_seconds();
    session.scheduler().run_round(session.measurer());
    out.round_seconds.push_back(now_seconds() - t0);
  }
  double t0 = now_seconds();
  session.scheduler().flush_callbacks();
  out.drain_seconds = now_seconds() - t0;

  out.round_log = session.scheduler().round_log();
  for (int i = 0; i < session.scheduler().num_tasks(); ++i) {
    out.bests.push_back(session.task_best_ms(i));
  }
  if (mode != Mode::kBaseline) {
    logger.close();
    out.log_bytes = slurp(log_path);
  }
  return out;
}

bool same_results(const RunResult& a, const RunResult& b, const char* what) {
  bool ok = true;
  if (a.round_log.size() != b.round_log.size()) {
    std::fprintf(stderr, "FAIL %s: round counts differ (%zu vs %zu)\n", what,
                 a.round_log.size(), b.round_log.size());
    return false;
  }
  for (std::size_t i = 0; i < a.round_log.size(); ++i) {
    if (a.round_log[i].task != b.round_log[i].task ||
        a.round_log[i].trials_after != b.round_log[i].trials_after ||
        a.round_log[i].net_latency_ms != b.round_log[i].net_latency_ms) {
      std::fprintf(stderr, "FAIL %s: round %zu differs\n", what, i);
      ok = false;
    }
  }
  if (a.bests != b.bests) {
    std::fprintf(stderr, "FAIL %s: per-task bests differ\n", what);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const int rounds = args.trials > 0 ? static_cast<int>(args.trials) : 40;

  SearchOptions opts = args.options(PolicyKind::kHarl);
  opts.harl.stop.initial_tracks = 8;
  opts.harl.stop.min_tracks = 2;
  opts.harl.ppo.minibatch_size = 16;
  opts.harl.ppo.update_epochs = 1;
  opts.measures_per_round = 5;

  std::printf("callback-bus gate: %d rounds, %d ms sleeping consumer\n\n",
              rounds, kSleepMsPerBatch);

  RunResult baseline = run_mode(Mode::kBaseline, opts, rounds, "");
  RunResult sync = run_mode(Mode::kSync, opts, rounds, "bus_sync.jsonl");
  RunResult async = run_mode(Mode::kAsync, opts, rounds, "bus_async.jsonl");

  double base_ms = baseline.median_round_ms();
  double sync_ms = sync.median_round_ms();
  double async_ms = async.median_round_ms();

  Table table("per-round wall time with a 10 ms/batch consumer");
  table.set_header({"mode", "median round ms", "drain ms", "vs baseline"});
  table.add("no callbacks", Table::fmt(base_ms, 3), Table::fmt(0.0, 1), "1.00x");
  table.add("sync", Table::fmt(sync_ms, 3), Table::fmt(sync.drain_seconds * 1e3, 1),
            Table::fmt(sync_ms / base_ms, 2) + "x");
  table.add("async", Table::fmt(async_ms, 3),
            Table::fmt(async.drain_seconds * 1e3, 1),
            Table::fmt(async_ms / base_ms, 2) + "x");
  table.print();
  args.maybe_save(table, "callback_bus");

  bool deterministic = same_results(baseline, sync, "sync vs baseline") &&
                       same_results(baseline, async, "async vs baseline");
  bool log_identical =
      !sync.log_bytes.empty() && sync.log_bytes == async.log_bytes;
  if (!log_identical) {
    std::fprintf(stderr, "FAIL: async record log is not byte-identical to sync "
                         "(%zu vs %zu bytes)\n",
                 async.log_bytes.size(), sync.log_bytes.size());
  }

  // Latency gate.  The async hot loop must track the no-callback baseline
  // (10% + 1 ms scheduling slack); the sync loop must visibly pay the
  // consumer's sleep, or the gate isn't testing anything.
  double async_limit_ms = base_ms * 1.10 + 1.0;
  bool async_fast = async_ms <= async_limit_ms;
  bool sync_slow = sync_ms >= base_ms + 0.5 * kSleepMsPerBatch;
  if (!async_fast) {
    std::fprintf(stderr,
                 "FAIL: async median %.3f ms exceeds baseline-tracking limit "
                 "%.3f ms\n",
                 async_ms, async_limit_ms);
  }
  if (!sync_slow) {
    std::fprintf(stderr,
                 "FAIL: sync median %.3f ms does not show the consumer's "
                 "sleep over baseline %.3f ms (gate not discriminating)\n",
                 sync_ms, base_ms);
  }

  std::FILE* json = std::fopen("BENCH_callback_bus.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\"rounds\":%d,\"sleep_ms\":%d,"
                 "\"baseline_median_ms\":%.17g,\"sync_median_ms\":%.17g,"
                 "\"async_median_ms\":%.17g,\"async_drain_ms\":%.17g,"
                 "\"deterministic\":%s,\"log_identical\":%s,"
                 "\"async_fast\":%s,\"sync_slow\":%s}\n",
                 rounds, kSleepMsPerBatch, base_ms, sync_ms, async_ms,
                 async.drain_seconds * 1e3, deterministic ? "true" : "false",
                 log_identical ? "true" : "false", async_fast ? "true" : "false",
                 sync_slow ? "true" : "false");
    std::fclose(json);
  }
  std::remove("bus_sync.jsonl");
  std::remove("bus_async.jsonl");

  if (!deterministic || !log_identical) return 2;
  if (!async_fast || !sync_slow) return 1;
  std::printf("\ncallback-bus gate passed: async tracks baseline "
              "(%.2fx), sync degrades (%.2fx), results bit-identical\n",
              async_ms / base_ms, sync_ms / base_ms);
  return 0;
}
