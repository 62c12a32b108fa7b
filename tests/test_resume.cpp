#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/presets.hpp"
#include "core/tuning.hpp"
#include "exp/transfer.hpp"
#include "io/record_logger.hpp"
#include "io/resume.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

Network tiny_network() {
  Network net;
  net.name = "resume_tiny";
  net.subgraphs.push_back(make_gemm(128, 128, 128, 1, "g_big", 4.0));
  net.subgraphs.push_back(make_gemm(64, 64, 64, 1, "g_small", 1.0));
  net.subgraphs.push_back(make_elementwise(1 << 14, 2.0, "ew", 2.0));
  return net;
}

SearchOptions tiny_options(PolicyKind kind, std::uint64_t seed = 5) {
  SearchOptions opts = quick_options(kind, seed);
  opts.harl.stop.initial_tracks = 8;
  opts.harl.stop.min_tracks = 2;
  opts.harl.stop.window = 4;
  opts.harl.ppo.minibatch_size = 16;
  opts.harl.ppo.update_epochs = 1;
  opts.ansor.population = 24;
  opts.ansor.generations = 2;
  opts.measures_per_round = 5;
  return opts;
}

HardwareConfig noisy_hw() {
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  hw.noise_sigma = 0.05;  // resume must replay the exact noisy draws
  return hw;
}

/// RAII temp file.
struct TempPath {
  explicit TempPath(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~TempPath() { std::remove(path.c_str()); }
  std::string path;
};

// ------------------------------------------------------------- callbacks

struct EventTrace : TuningCallback {
  std::vector<RoundEvent> rounds;
  std::vector<int> new_best_tasks;
  std::vector<int> completed_tasks;
  std::size_t records_events = 0;
  std::size_t records_total = 0;

  void on_records(const TaskScheduler&, int,
                  const std::vector<MeasuredRecord>& records) override {
    ++records_events;
    records_total += records.size();
  }
  void on_new_best(const TaskScheduler&, int task, const MeasuredRecord& best) override {
    EXPECT_TRUE(std::isfinite(best.time_ms));
    new_best_tasks.push_back(task);
  }
  void on_round(const TaskScheduler& sched, const RoundEvent& round) override {
    // on_round fires after the round is in round_log().
    ASSERT_EQ(round.round_index + 1, sched.round_log().size());
    EXPECT_EQ(sched.round_log().back().task, round.task);
    EXPECT_EQ(sched.round_log().back().trials_after, round.trials_after);
    rounds.push_back(round);
  }
  void on_task_complete(const TaskScheduler&, int task) override {
    completed_tasks.push_back(task);
  }
};

TEST(CallbackBusTest, EventsMirrorTheRun) {
  Network net = tiny_network();
  HardwareConfig hw = noisy_hw();
  EventTrace trace;
  TuningSession session(net, hw, tiny_options(PolicyKind::kAnsor));
  session.add_callback(&trace);
  session.run(40);

  const auto& log = session.scheduler().round_log();
  ASSERT_EQ(trace.rounds.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(trace.rounds[i].task, log[i].task);
    EXPECT_EQ(trace.rounds[i].trials_after, log[i].trials_after);
    EXPECT_EQ(trace.rounds[i].net_latency_ms, log[i].net_latency_ms);
    EXPECT_EQ(trace.rounds[i].round_index, i);
  }
  EXPECT_EQ(trace.records_events, log.size());
  // Warmup measures every task for the first time: each fires on_new_best.
  EXPECT_GE(trace.new_best_tasks.size(),
            static_cast<std::size_t>(session.scheduler().num_tasks()));
  // run() completion notifies every task once.
  ASSERT_EQ(trace.completed_tasks.size(),
            static_cast<std::size_t>(session.scheduler().num_tasks()));
  for (int i = 0; i < session.scheduler().num_tasks(); ++i) {
    EXPECT_EQ(trace.completed_tasks[static_cast<std::size_t>(i)], i);
  }
}

TEST(CallbackBusTest, AddRemoveAndDedup) {
  CallbackBus bus;
  EventTrace a, b;
  bus.add(&a);
  bus.add(&a);  // duplicate ignored
  bus.add(nullptr);
  bus.add(&b);
  EXPECT_EQ(bus.size(), 2u);
  bus.remove(&a);
  EXPECT_EQ(bus.size(), 1u);
  bus.remove(&a);  // absent: no-op
  EXPECT_EQ(bus.size(), 1u);
  bus.clear();
  EXPECT_TRUE(bus.empty());
}

// ---------------------------------------------------------- record logger

TEST(RecordLoggerTest, LogIsParseableAndReconstructible) {
  TempPath log("harl_test_logger.jsonl");
  Network net = tiny_network();
  HardwareConfig hw = noisy_hw();
  SearchOptions opts = tiny_options(PolicyKind::kHarl);

  TuningSession session(net, hw, opts);
  RecordLogger logger;
  ASSERT_TRUE(logger.open(log.path));
  session.add_callback(&logger);
  session.run(40);

  std::vector<RecordReadError> errors;
  std::vector<TuningRecord> records = read_records(log.path, &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(records.size(), logger.written());
  ASSERT_FALSE(records.empty());

  std::int64_t uncached = 0;
  for (const TuningRecord& r : records) {
    EXPECT_EQ(r.network, net.name);
    EXPECT_EQ(r.hardware_fp, hw.fingerprint());
    EXPECT_EQ(r.policy, "HARL");
    EXPECT_EQ(r.seed, opts.seed);
    ASSERT_GE(r.task_index, 0);
    ASSERT_LT(r.task_index, session.scheduler().num_tasks());
    const TaskState& task = session.scheduler().task(r.task_index);
    EXPECT_EQ(r.task, task.graph().name());
    std::string error;
    Schedule sched = schedule_from_record(r, task.sketches(),
                                          hw.num_unroll_options(), &error);
    ASSERT_NE(sched.sketch, nullptr) << error;
    EXPECT_TRUE(task.already_measured(sched));
    if (!r.cached) ++uncached;
  }
  // One log line per committed record; uncached lines account for exactly
  // the measurer's spent trials.
  EXPECT_EQ(uncached, session.measurer().trials_used());
}

// ------------------------------------------------------------- resume

struct RunSnapshot {
  std::vector<TaskScheduler::RoundLog> round_log;
  std::vector<std::uint64_t> best_fps;
  std::vector<double> best_ms;
  std::int64_t trials = 0;
};

RunSnapshot snapshot(const TuningSession& session) {
  RunSnapshot s;
  s.round_log = session.scheduler().round_log();
  for (int i = 0; i < session.scheduler().num_tasks(); ++i) {
    const TaskState& t = session.scheduler().task(i);
    s.best_fps.push_back(t.has_best() ? t.best_schedule().fingerprint() : 0);
    s.best_ms.push_back(t.best_time_ms());
  }
  s.trials = session.measurer().trials_used();
  return s;
}

void expect_identical(const RunSnapshot& a, const RunSnapshot& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.best_ms, b.best_ms);  // bitwise
  EXPECT_EQ(a.best_fps, b.best_fps);
  ASSERT_EQ(a.round_log.size(), b.round_log.size());
  for (std::size_t i = 0; i < a.round_log.size(); ++i) {
    EXPECT_EQ(a.round_log[i].task, b.round_log[i].task) << i;
    EXPECT_EQ(a.round_log[i].trials_after, b.round_log[i].trials_after) << i;
    EXPECT_EQ(a.round_log[i].net_latency_ms, b.round_log[i].net_latency_ms) << i;
  }
}

/// The tentpole acceptance property: interrupt at *any* round boundary,
/// resume from the log, and the completed run is bit-identical to an
/// uninterrupted one — round log, trials, and best schedules.
void check_resume_at(PolicyKind kind, int interrupt_after_rounds) {
  SCOPED_TRACE("interrupt after round " + std::to_string(interrupt_after_rounds));
  Network net = tiny_network();
  HardwareConfig hw = noisy_hw();
  const std::int64_t kBudget = 60;

  // Uninterrupted reference, with its log.
  TempPath full_log("harl_test_resume_full_" + std::to_string(interrupt_after_rounds) +
                    policy_kind_name(kind) + ".jsonl");
  RunSnapshot reference;
  {
    TuningSession session(net, hw, tiny_options(kind));
    RecordLogger logger;
    ASSERT_TRUE(logger.open(full_log.path));
    session.add_callback(&logger);
    session.run(kBudget);
    reference = snapshot(session);
  }

  // Interrupted run: stop (abandon the session) after N rounds.
  TempPath crash_log("harl_test_resume_crash_" + std::to_string(interrupt_after_rounds) +
                     policy_kind_name(kind) + ".jsonl");
  {
    TuningSession session(net, hw, tiny_options(kind));
    RecordLogger logger;
    ASSERT_TRUE(logger.open(crash_log.path));
    session.add_callback(&logger);
    for (int r = 0; r < interrupt_after_rounds; ++r) {
      session.scheduler().run_round(session.measurer());
    }
  }

  // Resumed run: fresh session, replay the partial log, finish the budget.
  RunSnapshot resumed;
  {
    TuningSession session(net, hw, tiny_options(kind));
    ResumeStats stats = resume_session(session, crash_log.path);
    EXPECT_EQ(stats.records_matched, stats.records_loaded);
    EXPECT_EQ(stats.lines_skipped, 0u);
    RecordLogger logger;
    ASSERT_TRUE(logger.open(crash_log.path));
    logger.set_skip(stats.records_matched);
    session.add_callback(&logger);
    session.run(kBudget);
    EXPECT_EQ(session.measurer().replayed(),
              static_cast<std::int64_t>(stats.replay_trials));
    resumed = snapshot(session);
  }
  expect_identical(reference, resumed);

  // The crash log, after resume, must be byte-identical to the full log.
  std::vector<TuningRecord> full = read_records(full_log.path);
  std::vector<TuningRecord> crash = read_records(crash_log.path);
  ASSERT_EQ(full.size(), crash.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(record_to_json(full[i]), record_to_json(crash[i])) << i;
  }
}

TEST(ResumeTest, HarlBitIdenticalAcrossInterruptPoints) {
  for (int rounds : {1, 3, 6}) {
    check_resume_at(PolicyKind::kHarl, rounds);
  }
}

TEST(ResumeTest, AnsorBitIdentical) { check_resume_at(PolicyKind::kAnsor, 4); }

TEST(ResumeTest, AutoTvmBitIdentical) { check_resume_at(PolicyKind::kAutoTvmSa, 4); }

TEST(ResumeTest, MismatchedIdentityReplaysNothing) {
  Network net = tiny_network();
  HardwareConfig hw = noisy_hw();
  TempPath log("harl_test_resume_mismatch.jsonl");
  {
    TuningSession session(net, hw, tiny_options(PolicyKind::kHarl, 5));
    RecordLogger logger;
    ASSERT_TRUE(logger.open(log.path));
    session.add_callback(&logger);
    session.run(20);
  }
  // Different seed => different run identity: nothing must replay.
  TuningSession other(net, hw, tiny_options(PolicyKind::kHarl, 6));
  ResumeStats stats = resume_session(other, log.path);
  EXPECT_GT(stats.records_loaded, 0u);
  EXPECT_EQ(stats.records_matched, 0u);
  EXPECT_EQ(stats.replay_trials, 0);
  EXPECT_EQ(stats.records_skipped, stats.records_loaded);
}

TEST(ResumeTest, TornFinalLineStillResumesBitIdentically) {
  Network net = tiny_network();
  HardwareConfig hw = noisy_hw();
  const std::int64_t kBudget = 40;

  RunSnapshot reference;
  {
    TuningSession session(net, hw, tiny_options(PolicyKind::kHarl));
    session.run(kBudget);
    reference = snapshot(session);
  }

  TempPath log("harl_test_resume_torn.jsonl");
  {
    TuningSession session(net, hw, tiny_options(PolicyKind::kHarl));
    RecordLogger logger;
    ASSERT_TRUE(logger.open(log.path));
    session.add_callback(&logger);
    for (int r = 0; r < 3; ++r) session.scheduler().run_round(session.measurer());
  }
  // Tear the final line, as an OS-level crash mid-write would.
  std::FILE* f = std::fopen(log.path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  ASSERT_EQ(0, std::fseek(f, 0, SEEK_SET));
  int dropped = 40;
  ASSERT_EQ(0, ::ftruncate(fileno(f), size - dropped));
  std::fclose(f);

  RunSnapshot resumed;
  {
    TuningSession session(net, hw, tiny_options(PolicyKind::kHarl));
    ResumeStats stats = resume_session(session, log.path);
    ASSERT_EQ(stats.lines_skipped, 1u);  // the torn line
    RecordLogger logger;
    ASSERT_TRUE(logger.open(log.path));
    logger.set_skip(stats.records_matched);
    session.add_callback(&logger);
    session.run(kBudget);
    resumed = snapshot(session);
  }
  expect_identical(reference, resumed);
}

// -------------------------------------------------------- history best

TEST(ApplyHistoryBestTest, SeedsFreshSessionAcrossPolicies) {
  Network net = tiny_network();
  HardwareConfig hw = noisy_hw();
  TempPath log("harl_test_history.jsonl");

  double tuned_latency;
  {
    TuningSession session(net, hw, tiny_options(PolicyKind::kAnsor, 5));
    RecordLogger logger;
    ASSERT_TRUE(logger.open(log.path));
    session.add_callback(&logger);
    session.run(60);
    tuned_latency = session.latency_ms();
  }

  // Fresh session with a *different* policy and seed: history still applies
  // (matching is by subgraph name + hardware fingerprint only).
  TuningSession fresh(net, hw, tiny_options(PolicyKind::kHarl, 99));
  EXPECT_TRUE(std::isinf(fresh.latency_ms()));
  int applied = transfer_history_best(fresh, read_records(log.path)).applied;
  EXPECT_EQ(applied, fresh.scheduler().num_tasks());
  EXPECT_TRUE(std::isfinite(fresh.latency_ms()));
  EXPECT_DOUBLE_EQ(fresh.latency_ms(), tuned_latency);
  // Seeding consumed no measurement trials.
  EXPECT_EQ(fresh.measurer().trials_used(), 0);
  for (int i = 0; i < fresh.scheduler().num_tasks(); ++i) {
    EXPECT_TRUE(fresh.scheduler().task(i).has_best());
  }

  // Different hardware: no exact match exists, but the log carries hardware
  // similarity vectors, so the scored matcher adapts the schedules and
  // *seeds* each task's search with them (best pool + cost model).  The
  // estimates never claim a task best — only real measurements set
  // latency_ms (see exp/transfer.hpp).
  HardwareConfig other_hw = noisy_hw();
  other_hw.num_cores = 8;
  std::vector<TuningRecord> records = read_records(log.path);
  {
    TuningSession sibling(net, other_hw, tiny_options(PolicyKind::kHarl, 99));
    TransferStats stats = transfer_history_best(sibling, records);
    EXPECT_EQ(stats.exact, 0);
    EXPECT_EQ(stats.transferred, sibling.scheduler().num_tasks());
    EXPECT_TRUE(std::isinf(sibling.latency_ms()));
    EXPECT_EQ(sibling.measurer().trials_used(), 0);
    for (int i = 0; i < sibling.scheduler().num_tasks(); ++i) {
      const TaskState& task = sibling.scheduler().task(i);
      EXPECT_FALSE(task.has_best());
      ASSERT_FALSE(task.best_pool().empty());
      // The seed stays re-measurable: a real trial may correct its estimate.
      EXPECT_FALSE(task.already_measured(task.best_pool().front().sched));
    }
  }

  // With structural transfer off, the strict exact rule is back: nothing
  // applies on foreign hardware.
  {
    TuningSession strict(net, other_hw, tiny_options(PolicyKind::kHarl, 99));
    TransferOptions exact_only;
    exact_only.structural = false;
    EXPECT_EQ(transfer_history_best(strict, records, exact_only).applied, 0);
  }

  // Records without a similarity vector (pre-transfer logs) cannot cross
  // hardware either.
  {
    std::vector<TuningRecord> legacy = records;
    for (TuningRecord& r : legacy) r.hw_sim.clear();
    TuningSession old_log(net, other_hw, tiny_options(PolicyKind::kHarl, 99));
    EXPECT_EQ(transfer_history_best(old_log, legacy).applied, 0);
  }
}

// ------------------------------------------------------------- fleet

TEST(FleetWarmStartTest, SecondRunReplaysEverythingBitIdentically) {
  const std::string log_dir = "harl_test_fleet_logs";

  auto make_fleet = [&](FleetTuner& fleet) {
    FleetWorkload a;
    a.network = Network{};
    a.network.name = "fleet_a";
    a.network.subgraphs.push_back(make_gemm(96, 96, 96, 1, "fa_gemm"));
    a.hardware = noisy_hw();
    a.options = tiny_options(PolicyKind::kAnsor, 21);
    a.trials = 30;
    fleet.add(std::move(a));

    FleetWorkload b;
    b.network = Network{};
    b.network.name = "fleet_b";
    b.network.subgraphs.push_back(make_gemm(64, 64, 64, 1, "fb_gemm"));
    b.hardware = noisy_hw();
    b.options = tiny_options(PolicyKind::kRandom, 22);
    b.trials = 30;
    fleet.add(std::move(b));
  };

  FleetTuner::Options opts;
  opts.max_concurrent = 2;
  opts.log_dir = log_dir;

  FleetTuner cold(opts);
  make_fleet(cold);
  FleetReport first = cold.run();
  ASSERT_EQ(first.networks.size(), 2u);
  for (const FleetNetworkResult& r : first.networks) {
    EXPECT_EQ(r.replayed_trials, 0);
    EXPECT_GT(r.records_logged, 0u);
  }

  // A new fleet over the same log dir warm-starts: every trial replays, no
  // new records are appended, results are bit-identical.
  FleetTuner warm(opts);
  make_fleet(warm);
  FleetReport second = warm.run();
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(second.networks[i].trials_used, first.networks[i].trials_used);
    EXPECT_EQ(second.networks[i].replayed_trials, first.networks[i].trials_used);
    EXPECT_EQ(second.networks[i].records_logged, 0u);
    EXPECT_EQ(second.networks[i].latency_ms, first.networks[i].latency_ms);  // bitwise
    EXPECT_EQ(second.networks[i].rounds, first.networks[i].rounds);
  }
  EXPECT_NE(first.to_string().find("replayed"), std::string::npos);

  // Cleanup the log dir contents.
  std::remove((log_dir + "/fleet_a.jsonl").c_str());
  std::remove((log_dir + "/fleet_b.jsonl").c_str());
  ::rmdir(log_dir.c_str());
}

TEST(FleetWarmStartTest, CollidingWorkloadNamesGetDistinctLogs) {
  const std::string log_dir = "harl_test_fleet_dup/nested";  // exercises mkdir -p

  FleetTuner::Options opts;
  opts.max_concurrent = 2;
  opts.log_dir = log_dir;
  FleetTuner fleet(opts);
  for (std::uint64_t seed : {31, 32, 33}) {
    FleetWorkload w;
    w.name = "same/name";  // sanitizes identically for all three
    w.network = Network{};
    w.network.name = "dup_net";
    w.network.subgraphs.push_back(make_gemm(48, 48, 48, 1, "dup_gemm"));
    w.hardware = noisy_hw();
    w.options = tiny_options(PolicyKind::kRandom, seed);
    w.trials = 15;
    fleet.add(std::move(w));
  }
  // Three distinct files: the first keeps the plain stem, later colliders
  // are suffixed with their stable workload index.
  EXPECT_EQ(fleet.log_path(0), log_dir + "/same_name.jsonl");
  EXPECT_EQ(fleet.log_path(1), log_dir + "/same_name_1.jsonl");
  EXPECT_EQ(fleet.log_path(2), log_dir + "/same_name_2.jsonl");

  FleetReport first = fleet.run();
  for (const FleetNetworkResult& r : first.networks) {
    EXPECT_GT(r.records_logged, 0u);
    EXPECT_EQ(r.replayed_trials, 0);
  }
  // Each log holds exactly its own workload's records (no interleaving), so
  // a second fleet warm-starts every workload fully from its own file.
  FleetTuner warm(opts);
  for (std::uint64_t seed : {31, 32, 33}) {
    FleetWorkload w;
    w.name = "same/name";
    w.network = Network{};
    w.network.name = "dup_net";
    w.network.subgraphs.push_back(make_gemm(48, 48, 48, 1, "dup_gemm"));
    w.hardware = noisy_hw();
    w.options = tiny_options(PolicyKind::kRandom, seed);
    w.trials = 15;
    warm.add(std::move(w));
  }
  FleetReport second = warm.run();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(second.networks[i].replayed_trials, first.networks[i].trials_used);
    EXPECT_EQ(second.networks[i].records_logged, 0u);
    EXPECT_EQ(second.networks[i].latency_ms, first.networks[i].latency_ms);
  }

  for (int i = 0; i < 3; ++i) std::remove(fleet.log_path(i).c_str());
  ::rmdir(log_dir.c_str());
  ::rmdir("harl_test_fleet_dup");
}

// ---------------------------------------------------- measurer replay unit

TEST(MeasurerReplayTest, PreloadedTrialsSkipSimulator) {
  HardwareConfig hw = noisy_hw();
  CostSimulator sim(hw);
  Measurer measurer(&sim, 77);
  Subgraph g = make_gemm(32, 32, 32, 1, "mr_gemm");
  std::vector<Sketch> sketches = generate_sketches(g);
  Rng rng(1);
  Schedule s0 = random_schedule(sketches[0], hw.num_unroll_options(), rng);
  Schedule s1 = random_schedule(sketches[0], hw.num_unroll_options(), rng);

  measurer.preload_replay({1.25, std::numeric_limits<double>::quiet_NaN()});
  MeasureResult r0 = measurer.measure_one(s0);
  EXPECT_EQ(r0.time_ms, 1.25);  // trial 0: replayed verbatim
  EXPECT_EQ(r0.trial_index, 0);
  MeasureResult r1 = measurer.measure_one(s1);
  EXPECT_NE(r1.time_ms, 1.25);  // trial 1: NaN entry => simulated
  EXPECT_EQ(measurer.replayed(), 1);
  EXPECT_EQ(measurer.trials_used(), 2);  // replay does not change accounting
}

}  // namespace
}  // namespace harl
