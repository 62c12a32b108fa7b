#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/fleet.hpp"
#include "core/presets.hpp"
#include "io/record_logger.hpp"
#include "io/safe_file.hpp"
#include "util/thread_pool.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

Network small_network(const char* name, int dim, double weight) {
  Network net;
  net.name = name;
  net.subgraphs.push_back(make_gemm(dim, dim, dim, 1, "gemm", weight));
  net.subgraphs.push_back(make_elementwise(1 << 12, 2.0, "ew", 1.0));
  return net;
}

SearchOptions small_options(std::uint64_t seed) {
  SearchOptions opts = quick_options(PolicyKind::kHarl, seed);
  opts.harl.stop.initial_tracks = 8;
  opts.harl.stop.min_tracks = 2;
  opts.harl.stop.window = 4;
  opts.harl.ppo.minibatch_size = 16;
  opts.harl.ppo.update_epochs = 1;
  opts.measures_per_round = 5;
  return opts;
}

FleetWorkload make_workload(const char* name, int dim, std::uint64_t seed,
                            std::int64_t trials) {
  FleetWorkload w;
  w.network = small_network(name, dim, 2.0);
  w.hardware = HardwareConfig::xeon_6226r();
  w.hardware.noise_sigma = 0.05;
  w.options = small_options(seed);
  w.trials = trials;
  return w;
}

TEST(FleetTuner, TunesEveryWorkloadWithinBudget) {
  ThreadPool pool(2);
  FleetTuner::Options opts;
  opts.max_concurrent = 2;
  opts.measure_pool = &pool;
  FleetTuner fleet(opts);
  fleet.add(make_workload("net_a", 64, 1, 30));
  fleet.add(make_workload("net_b", 96, 2, 30));
  fleet.add(make_workload("net_c", 48, 3, 30));

  FleetReport report = fleet.run();
  ASSERT_EQ(report.networks.size(), 3u);
  for (const FleetNetworkResult& r : report.networks) {
    EXPECT_EQ(r.num_tasks, 2);
    EXPECT_GE(r.trials_used, 30);
    EXPECT_LT(r.trials_used, 30 + 10);
    EXPECT_TRUE(std::isfinite(r.latency_ms));
    EXPECT_GT(r.rounds, 0u);
  }
  EXPECT_EQ(report.total_trials, report.networks[0].trials_used +
                                     report.networks[1].trials_used +
                                     report.networks[2].trials_used);
  EXPECT_NE(report.to_string().find("net_b"), std::string::npos);
}

// Fleet concurrency must not leak between sessions: each network's outcome
// equals tuning it alone with the same options.
TEST(FleetTuner, ConcurrentResultsMatchSoloRuns) {
  auto solo = [](FleetWorkload w) {
    TuningSession session(w.network, w.hardware, w.options);
    session.run(w.trials);
    return std::make_pair(session.latency_ms(),
                          session.measurer().trials_used());
  };
  auto [lat_a, trials_a] = solo(make_workload("net_a", 64, 7, 40));
  auto [lat_b, trials_b] = solo(make_workload("net_b", 96, 8, 40));

  ThreadPool pool(4);
  FleetTuner::Options opts;
  opts.max_concurrent = 2;
  opts.measure_pool = &pool;
  FleetTuner fleet(opts);
  fleet.add(make_workload("net_a", 64, 7, 40));
  fleet.add(make_workload("net_b", 96, 8, 40));
  FleetReport report = fleet.run();

  EXPECT_EQ(report.networks[0].latency_ms, lat_a);
  EXPECT_EQ(report.networks[0].trials_used, trials_a);
  EXPECT_EQ(report.networks[1].latency_ms, lat_b);
  EXPECT_EQ(report.networks[1].trials_used, trials_b);
}

TEST(FleetTuner, EmptyFleetAndRerun) {
  FleetTuner fleet;
  FleetReport empty = fleet.run();
  EXPECT_TRUE(empty.networks.empty());
  EXPECT_EQ(empty.total_trials, 0);

  fleet.add(make_workload("net_a", 48, 4, 20));
  FleetReport first = fleet.run();
  FleetReport second = fleet.run();  // re-runs from scratch, deterministic
  ASSERT_EQ(first.networks.size(), 1u);
  EXPECT_EQ(first.networks[0].latency_ms, second.networks[0].latency_ms);
  EXPECT_EQ(first.networks[0].trials_used, second.networks[0].trials_used);
}

int open_fd_count() {
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  int n = 0;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(d);
  return n;
}

std::string file_bytes(const std::string& path) {
  std::string text, error;
  EXPECT_TRUE(read_text_file(path, &text, &error)) << error;
  return text;
}

/// Counts the events of one job and those that arrive after its completion
/// hook ran.  Events come from the job's async-bus thread.
struct LateEventProbe : TuningCallback {
  std::atomic<bool> completed{false};
  std::atomic<int> events{0};
  std::atomic<int> late{0};

  void note() {
    events.fetch_add(1);
    if (completed.load()) late.fetch_add(1);
  }
  void on_records(const TaskScheduler&, int,
                  const std::vector<MeasuredRecord>&) override { note(); }
  void on_failure(const TaskScheduler&, const FailureEvent&) override { note(); }
  void on_new_best(const TaskScheduler&, int, const MeasuredRecord&) override {
    note();
  }
  void on_round(const TaskScheduler&, const RoundEvent&) override { note(); }
  void on_task_complete(const TaskScheduler&, int) override { note(); }
};

// A daemon-style fleet frees each job's session and record logger when the
// job finishes: open fds return to their pre-job count, no event reaches a
// job's callbacks after its completion hook, and the release changes no
// output — every log and latency equals tuning that job alone.
TEST(FleetTuner, FinishedJobsReleaseTheirSessionAndLogger) {
  const std::string log_dir = "harl_test_fleet_lifecycle";
  constexpr int kJobs = 4;
  LateEventProbe probes[kJobs];
  std::mutex mu;
  std::condition_variable cv;
  int completions = 0;

  ThreadPool pool(2);
  FleetTuner::Options opts;
  opts.max_concurrent = 1;
  opts.measure_pool = &pool;
  opts.log_dir = log_dir;
  opts.on_complete = [&](int index, const FleetNetworkResult&) {
    probes[index].completed.store(true);
    std::lock_guard<std::mutex> lk(mu);
    ++completions;
    cv.notify_all();
  };
  FleetTuner fleet(opts);
  fleet.start();

  for (int j = 0; j < kJobs; ++j) {
    const std::string name = "life_" + std::to_string(j);
    auto workload = [&] {
      return make_workload(name.c_str(), 48 + 16 * j,
                           static_cast<std::uint64_t>(30 + j), 30);
    };
    const int fds_before = open_fd_count();
    FleetWorkload w = workload();
    w.callbacks.push_back(&probes[j]);
    const int index = fleet.submit(std::move(w));
    ASSERT_EQ(index, j);
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return completions == j + 1; });
    }
    fleet.wait_idle();
    ASSERT_EQ(fleet.workload_state(index), FleetJobState::kDone);
    EXPECT_EQ(open_fd_count(), fds_before) << "job " << j;
    EXPECT_GT(probes[j].events.load(), 0);
    EXPECT_EQ(probes[j].late.load(), 0) << "job " << j;

    const std::string solo_log = log_dir + "/solo_" + name + ".jsonl";
    FleetWorkload solo_w = workload();
    TuningSession solo(solo_w.network, solo_w.hardware, solo_w.options);
    {
      RecordLogger logger;
      ASSERT_TRUE(logger.open(solo_log, /*append=*/false));
      solo.add_callback(&logger);
      solo.run(solo_w.trials);
    }
    const FleetNetworkResult r = fleet.result(index);
    EXPECT_EQ(r.latency_ms, solo.latency_ms());  // bitwise
    ASSERT_EQ(r.task_best_ms.size(), 2u);
    EXPECT_EQ(r.task_best_ms[0], solo.task_best_ms(0));
    EXPECT_EQ(r.task_best_ms[1], solo.task_best_ms(1));
    const std::string fleet_bytes = file_bytes(fleet.log_path(index));
    EXPECT_FALSE(fleet_bytes.empty());
    EXPECT_EQ(fleet_bytes, file_bytes(solo_log)) << "job " << j;
    std::remove(solo_log.c_str());
    std::remove(fleet.log_path(index).c_str());
  }
  fleet.stop();
  ::rmdir(log_dir.c_str());
}

/// A callback with a bug: every round it throws.
struct ThrowingCallback : TuningCallback {
  void on_round(const TaskScheduler&, const RoundEvent&) override {
    throw std::runtime_error("observer bug");
  }
};

// A fleet runs every workload's callbacks on the workload's own bus, so a
// callback that throws is counted and isolated: the workload finishes, and
// its record log is byte-identical to the same fleet without that callback.
TEST(FleetTuner, ThrowingCallbackIsCountedAndChangesNoRecord) {
  const std::string log_dir = "harl_test_fleet_throwing";
  auto run_fleet = [&](TuningCallback* extra, std::string* log_bytes) {
    FleetTuner::Options opts;
    opts.max_concurrent = 1;
    opts.log_dir = log_dir;
    FleetTuner fleet(opts);
    FleetWorkload w = make_workload("throwing_net", 64, 21, 40);
    if (extra != nullptr) w.callbacks.push_back(extra);
    fleet.add(std::move(w));
    FleetReport report = fleet.run();
    *log_bytes = file_bytes(fleet.log_path(0));
    std::remove(fleet.log_path(0).c_str());
    return report;
  };

  std::string plain_log, throwing_log;
  const FleetReport plain = run_fleet(nullptr, &plain_log);
  ThrowingCallback thrower;
  const FleetReport throwing = run_fleet(&thrower, &throwing_log);
  ::rmdir(log_dir.c_str());

  ASSERT_EQ(plain.networks.size(), 1u);
  ASSERT_EQ(throwing.networks.size(), 1u);
  const FleetNetworkResult& p = plain.networks[0];
  const FleetNetworkResult& t = throwing.networks[0];
  EXPECT_TRUE(t.completed);
  EXPECT_EQ(p.bus_consumer_errors, 0u);
  EXPECT_EQ(t.bus_consumer_errors, t.rounds);  // one per delivered round
  EXPECT_GT(t.bus_consumer_errors, 0u);
  EXPECT_EQ(t.latency_ms, p.latency_ms);  // bitwise
  EXPECT_EQ(t.rounds, p.rounds);
  EXPECT_FALSE(plain_log.empty());
  EXPECT_EQ(throwing_log, plain_log);
  EXPECT_NE(throwing.to_string().find("bus_errors"), std::string::npos);
}

}  // namespace
}  // namespace harl
