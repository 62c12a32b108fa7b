/// Fleet tuning: serve several networks' tuning requests concurrently from
/// one shared worker pool — the multi-tenant scenario where one
/// auto-scheduler instance handles many models at once.
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/fleet_tune [trials-per-network] [--log-dir=DIR]
///
/// With --log-dir, every network appends its measured records to
/// DIR/<network>.jsonl and warm-starts from that file on the next run: kill
/// this process at any point, re-run the same command, and each network
/// resumes from its last completed round (the "replayed" column counts the
/// trials served from the logs instead of the simulator).

#include <cstdio>
#include <cstring>
#include <string>

#include "core/harl.hpp"
#include "util/parse.hpp"

int main(int argc, char** argv) {
  using namespace harl;

  // Warmup tunes every task once (ResNet-50 has 24 tasks x 10 measures), so
  // budgets below ~250 leave the weighted latency estimate at +inf.
  std::int64_t trials = 400;
  std::string log_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--log-dir=", 10) == 0) {
      log_dir = argv[i] + 10;
    } else if (argv[i][0] != '-') {
      const char* end = parse_positive(argv[i], &trials);
      if (end == nullptr || *end != '\0') {
        std::fprintf(stderr, "bad trials %s: want a positive integer\n", argv[i]);
        return 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  // One pool serves every session's measurement batches and candidate
  // scoring; sessions themselves run on fleet threads.
  ThreadPool measure_pool;  // sized to hardware concurrency

  FleetTuner::Options fleet_opts;
  fleet_opts.measure_pool = &measure_pool;
  fleet_opts.log_dir = log_dir;
  FleetTuner fleet(fleet_opts);

  HardwareConfig cpu = HardwareConfig::xeon_6226r();
  for (const char* name : {"bert", "resnet50", "mobilenet_v2"}) {
    FleetWorkload w;
    w.network = make_network(name, /*batch=*/1);
    w.hardware = cpu;
    w.options = quick_options(PolicyKind::kHarl, /*seed=*/42);
    w.trials = trials;
    fleet.add(std::move(w));
  }

  std::printf("tuning %d networks x %lld trials on a %zu-thread pool%s%s...\n\n",
              fleet.num_workloads(), static_cast<long long>(trials),
              measure_pool.size(),
              log_dir.empty() ? "" : ", logs in ",
              log_dir.c_str());
  FleetReport report = fleet.run();
  std::printf("%s\n", report.to_string().c_str());

  // Per-network results are identical to tuning each network alone with the
  // same seed; concurrency only changes wall-clock time.
  for (const FleetNetworkResult& r : report.networks) {
    std::printf("%-14s best task latencies:", r.name.c_str());
    for (int t = 0; t < r.num_tasks && t < 4; ++t) {
      std::printf(" %.4f", r.task_best_ms[static_cast<std::size_t>(t)]);
    }
    std::printf("%s ms\n", r.num_tasks > 4 ? " ..." : "");
  }
  return 0;
}
