#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet.hpp"
#include "core/presets.hpp"
#include "core/tuning.hpp"
#include "cost/gbdt_io.hpp"
#include "exp/refresh.hpp"
#include "exp/shard_refresh.hpp"
#include "io/async_bus.hpp"
#include "io/record_io.hpp"
#include "io/record_logger.hpp"
#include "io/resume.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

Network tiny_network(const std::string& name = "bus_tiny") {
  Network net;
  net.name = name;
  net.subgraphs.push_back(make_gemm(128, 128, 128, 1, "g_big", 4.0));
  net.subgraphs.push_back(make_gemm(64, 64, 64, 1, "g_small", 1.0));
  return net;
}

SearchOptions tiny_options(PolicyKind kind, std::uint64_t seed = 5) {
  SearchOptions opts = quick_options(kind, seed);
  opts.harl.stop.initial_tracks = 8;
  opts.harl.stop.min_tracks = 2;
  opts.harl.stop.window = 4;
  opts.harl.ppo.minibatch_size = 16;
  opts.harl.ppo.update_epochs = 1;
  opts.measures_per_round = 5;
  return opts;
}

/// RAII temp file.
struct TempPath {
  explicit TempPath(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~TempPath() { std::remove(path.c_str()); }
  std::string path;
};

/// Records the sequence of events it receives (thread-safe: delivery happens
/// on the bus worker while assertions run on the test thread after flush).
struct SeqTrace : TuningCallback {
  struct Item {
    char kind;  // 'r'ecords, 'b'est, 'o' round, 'c'omplete
    int task;
    std::size_t count;     // records.size() for 'r'
    std::size_t round;     // round_index for 'o'
  };
  std::mutex mu;
  std::vector<Item> items;
  std::size_t records_total = 0;

  void on_records(const TaskScheduler&, int task,
                  const std::vector<MeasuredRecord>& records) override {
    std::lock_guard<std::mutex> lock(mu);
    items.push_back({'r', task, records.size(), 0});
    records_total += records.size();
  }
  void on_new_best(const TaskScheduler&, int task, const MeasuredRecord&) override {
    std::lock_guard<std::mutex> lock(mu);
    items.push_back({'b', task, 0, 0});
  }
  void on_round(const TaskScheduler&, const RoundEvent& round) override {
    std::lock_guard<std::mutex> lock(mu);
    items.push_back({'o', round.task, 0, round.round_index});
  }
  void on_task_complete(const TaskScheduler&, int task) override {
    std::lock_guard<std::mutex> lock(mu);
    items.push_back({'c', task, 0, 0});
  }
};

/// Blocks every delivery until released; signals when the first one starts.
/// Lets tests park the bus worker mid-delivery so the state of a full
/// queue is deterministic.
struct GatedTrace : SeqTrace {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool open = false;
  bool entered = false;

  void wait_entered() {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [this] { return entered; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(gate_mu);
      open = true;
    }
    gate_cv.notify_all();
  }
  void on_round(const TaskScheduler& s, const RoundEvent& round) override {
    {
      std::unique_lock<std::mutex> lock(gate_mu);
      entered = true;
      gate_cv.notify_all();
      gate_cv.wait(lock, [this] { return open; });
    }
    SeqTrace::on_round(s, round);
  }
};

struct ThrowingCallback : TuningCallback {
  void on_round(const TaskScheduler&, const RoundEvent&) override {
    throw std::runtime_error("observer bug");
  }
  void on_records(const TaskScheduler&, int,
                  const std::vector<MeasuredRecord>&) override {
    throw std::runtime_error("observer bug");
  }
};

/// A scheduler to hand the bus's emit path (events only reference it).
struct BusFixture {
  Network net = tiny_network();
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  SearchOptions opts = tiny_options(PolicyKind::kRandom);
  TaskScheduler sched{&net, &hw, opts};

  RoundEvent round(std::size_t i) {
    RoundEvent e;
    e.round_index = i;
    e.task = static_cast<int>(i % 2);
    return e;
  }
};

// ------------------------------------------------------------ bus basics

TEST(AsyncBusTest, FlushDeliversEveryEventExactlyOnceInOrder) {
  BusFixture fx;
  SeqTrace a, b;
  AsyncCallbackBus bus(/*capacity=*/64);
  bus.add(&a);
  bus.add(&b);

  constexpr std::size_t kRounds = 20;
  for (std::size_t i = 0; i < kRounds; ++i) {
    bus.on_round(fx.sched, fx.round(i));
    bus.on_task_complete(fx.sched, static_cast<int>(i % 2));
  }
  bus.flush();

  EXPECT_EQ(bus.enqueued(), 2 * kRounds);
  EXPECT_EQ(bus.delivered(), 2 * kRounds);
  EXPECT_EQ(bus.backlog(), 0u);
  ASSERT_EQ(a.items.size(), 2 * kRounds);
  // Identical sequences for every consumer, in emission order.
  for (std::size_t i = 0; i < kRounds; ++i) {
    EXPECT_EQ(a.items[2 * i].kind, 'o');
    EXPECT_EQ(a.items[2 * i].round, i);
    EXPECT_EQ(a.items[2 * i + 1].kind, 'c');
  }
  ASSERT_EQ(b.items.size(), a.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].kind, b.items[i].kind);
    EXPECT_EQ(a.items[i].round, b.items[i].round);
  }
}

TEST(AsyncBusTest, BackpressureIsLosslessPastCapacity) {
  BusFixture fx;
  SeqTrace trace;
  AsyncCallbackBus bus(/*capacity=*/2);
  bus.add(&trace);

  // Far more events than capacity: producers must stall, never lose.
  constexpr std::size_t kRounds = 200;
  for (std::size_t i = 0; i < kRounds; ++i) bus.on_round(fx.sched, fx.round(i));
  bus.flush();

  EXPECT_EQ(bus.delivered(), kRounds);
  ASSERT_EQ(trace.items.size(), kRounds);
  for (std::size_t i = 0; i < kRounds; ++i) EXPECT_EQ(trace.items[i].round, i);
}

TEST(AsyncBusTest, FullQueueBlocksTheProducerUntilASlotFrees) {
  BusFixture fx;
  GatedTrace trace;
  AsyncCallbackBus bus(/*capacity=*/2);
  bus.add(&trace);

  bus.on_round(fx.sched, fx.round(0));
  trace.wait_entered();  // worker parked inside event 0; queue empty
  bus.on_round(fx.sched, fx.round(1));
  bus.on_round(fx.sched, fx.round(2));  // both slots taken

  // The next event cannot be queued until the worker takes event 1, which
  // it cannot do while parked: the producer must wait, not drop anything.
  std::atomic<bool> queued{false};
  std::thread producer([&] {
    bus.on_round(fx.sched, fx.round(3));
    queued.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(queued.load());
  EXPECT_EQ(bus.enqueued(), 3u);
  EXPECT_EQ(bus.backlog(), 3u);  // two queued + one mid-delivery

  trace.release();
  producer.join();
  EXPECT_TRUE(queued.load());
  bus.flush();
  EXPECT_EQ(bus.delivered(), 4u);
  ASSERT_EQ(trace.items.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(trace.items[i].round, i);
}

TEST(AsyncBusTest, ThrowingConsumerIsIsolated) {
  BusFixture fx;
  ThrowingCallback thrower;
  SeqTrace witness;
  AsyncCallbackBus bus(/*capacity=*/64);
  bus.add(&thrower);  // registered first: throws before the witness runs
  bus.add(&witness);

  constexpr std::size_t kRounds = 12;
  for (std::size_t i = 0; i < kRounds; ++i) bus.on_round(fx.sched, fx.round(i));
  bus.flush();

  // Every event still reached the witness, every throw was counted, and the
  // dispatcher survived to deliver the next event.
  EXPECT_EQ(bus.consumer_errors(), kRounds);
  ASSERT_EQ(witness.items.size(), kRounds);
  bus.on_task_complete(fx.sched, 0);
  bus.flush();
  EXPECT_EQ(witness.items.size(), kRounds + 1);
  EXPECT_EQ(bus.consumer_errors(), kRounds);  // on_task_complete doesn't throw
}

TEST(AsyncBusTest, FlushForwardsToConsumers) {
  struct BufferingConsumer : SeqTrace {
    int flushes = 0;
    void flush() override { ++flushes; }
  };
  BusFixture fx;
  BufferingConsumer consumer;
  AsyncCallbackBus bus(/*capacity=*/8);
  bus.add(&consumer);
  bus.on_round(fx.sched, fx.round(0));
  bus.flush();
  // The queue drained AND the consumer's own flush ran — a buffering
  // consumer behaves at run exit exactly as it would on a sync bus.
  EXPECT_EQ(consumer.items.size(), 1u);
  EXPECT_EQ(consumer.flushes, 1);
}

TEST(AsyncBusTest, NoConsumersMeansNoQueueing) {
  BusFixture fx;
  AsyncCallbackBus bus(/*capacity=*/8);
  for (std::size_t i = 0; i < 20; ++i) bus.on_round(fx.sched, fx.round(i));
  bus.flush();
  EXPECT_EQ(bus.enqueued(), 0u);  // nothing copied for nobody
  EXPECT_EQ(bus.delivered(), 0u);
}

TEST(AsyncBusTest, DestructorDrainsPendingEvents) {
  BusFixture fx;
  SeqTrace trace;
  {
    AsyncCallbackBus bus(/*capacity=*/64);
    bus.add(&trace);
    for (std::size_t i = 0; i < 30; ++i) bus.on_round(fx.sched, fx.round(i));
    // no flush: destruction is the drain
  }
  EXPECT_EQ(trace.items.size(), 30u);
}

// ----------------------------------------------- async end-to-end parity

/// One durable tuning run; returns the log bytes.  With `async` the logger
/// runs on a bus the run owns, registered on the session in its place.
std::string run_logged(PolicyKind kind, bool async, const std::string& path,
                       std::vector<TaskScheduler::RoundLog>* rounds,
                       double* latency) {
  Network net = tiny_network();
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  hw.noise_sigma = 0.05;
  TuningSession session(net, hw, tiny_options(kind));
  RecordLogger logger;
  EXPECT_TRUE(logger.open(path, /*append=*/false));
  std::unique_ptr<AsyncCallbackBus> bus;
  if (async) {
    bus = std::make_unique<AsyncCallbackBus>(/*capacity=*/256);
    bus->add(&logger);
    session.add_callback(bus.get());
  } else {
    session.add_callback(&logger);
  }
  session.run(150);
  *rounds = session.scheduler().round_log();
  *latency = session.latency_ms();

  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

TEST(AsyncRunTest, AsyncRecordLoggerIsByteIdenticalToSync) {
  for (PolicyKind kind : {PolicyKind::kHarl, PolicyKind::kAnsor}) {
    TempPath sync_log("async_parity_sync.jsonl");
    TempPath async_log("async_parity_async.jsonl");
    std::vector<TaskScheduler::RoundLog> sync_rounds, async_rounds;
    double sync_latency = 0, async_latency = 0;
    std::string sync_bytes =
        run_logged(kind, /*async=*/false, sync_log.path, &sync_rounds, &sync_latency);
    std::string async_bytes =
        run_logged(kind, /*async=*/true, async_log.path, &async_rounds, &async_latency);

    EXPECT_FALSE(sync_bytes.empty());
    EXPECT_EQ(sync_bytes, async_bytes) << policy_kind_name(kind);
    EXPECT_EQ(sync_latency, async_latency);
    ASSERT_EQ(sync_rounds.size(), async_rounds.size());
    for (std::size_t i = 0; i < sync_rounds.size(); ++i) {
      EXPECT_EQ(sync_rounds[i].task, async_rounds[i].task);
      EXPECT_EQ(sync_rounds[i].trials_after, async_rounds[i].trials_after);
      EXPECT_EQ(sync_rounds[i].net_latency_ms, async_rounds[i].net_latency_ms);
    }
  }
}

TEST(AsyncRunTest, RunExitFlushesTheBus) {
  Network net = tiny_network();
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  TuningSession session(net, hw, tiny_options(PolicyKind::kRandom));
  SeqTrace trace;
  AsyncCallbackBus bus;
  bus.add(&trace);
  session.add_callback(&bus);
  session.run(60);

  // Everything produced was consumed before run() returned.
  EXPECT_EQ(bus.backlog(), 0u);
  EXPECT_GT(bus.enqueued(), 0u);
  EXPECT_EQ(bus.enqueued(), bus.delivered());
  // The trace saw the full event stream: one task_complete per task last.
  ASSERT_GE(trace.items.size(), 2u);
  EXPECT_EQ(trace.items[trace.items.size() - 2].kind, 'c');
  EXPECT_EQ(trace.items.back().kind, 'c');
  std::size_t records = 0;
  for (const auto& item : trace.items) records += item.count;
  EXPECT_EQ(trace.records_total, records);
  EXPECT_GT(records, 0u);
}

// ----------------------------------------------------- experience refresh

/// Resolver for the test networks (the builtin resolver only knows the
/// shipped "<base>_b<batch>" names).
TaskResolver test_resolver(std::vector<Network> nets) {
  auto owned = std::make_shared<std::vector<Network>>(std::move(nets));
  return [owned](const std::string& network,
                 const std::string& task) -> const Subgraph* {
    for (const Network& net : *owned) {
      if (net.name != network) continue;
      for (const Subgraph& g : net.subgraphs) {
        if (g.name() == task) return &g;
      }
    }
    return nullptr;
  };
}

TEST(RefresherTest, RefitsArePeriodicDeterministicAndPublished) {
  TempPath model_path("refresh_model.json");
  auto run_once = [&]() -> std::uint64_t {
    Network net = tiny_network();
    HardwareConfig hw = HardwareConfig::xeon_6226r();
    RefreshOptions ropts;
    ropts.period_rounds = 3;
    ropts.publish_path = model_path.path;
    ExperienceRefresher refresher(hw, ropts, test_resolver({tiny_network()}));
    TuningSession session(net, hw, tiny_options(PolicyKind::kHarl));
    AsyncCallbackBus bus;  // refits off the tuning thread
    bus.add(&refresher);
    session.add_callback(&bus);
    session.run(120);
    EXPECT_GT(refresher.refreshes(), 0u);
    EXPECT_GT(refresher.records_folded(), 0u);
    EXPECT_EQ(refresher.publish_errors(), 0u);
    return refresher.current_fingerprint();
  };

  std::uint64_t fp1 = run_once();
  ASSERT_NE(fp1, 0u);

  // The published file is the current model, byte-fingerprint included.
  Gbdt loaded;
  std::string error;
  ASSERT_TRUE(load_gbdt(model_path.path, &loaded, &error)) << error;
  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(gbdt_fingerprint(loaded), fp1);

  // Same run, same folds, same RNG stream -> same refreshed model bytes.
  std::uint64_t fp2 = run_once();
  EXPECT_EQ(fp1, fp2);
}

TEST(RefresherTest, BelowMinRowsPublishesNothing) {
  TempPath model_path("refresh_small.json");
  RefreshOptions ropts;
  ropts.period_rounds = 1;
  ropts.min_rows = 100000;  // unreachable
  ropts.publish_path = model_path.path;
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  ExperienceRefresher refresher(hw, ropts, test_resolver({tiny_network()}));
  EXPECT_FALSE(refresher.refresh_now());
  EXPECT_EQ(refresher.current_model(), nullptr);
  EXPECT_EQ(refresher.current_fingerprint(), 0u);
  std::FILE* f = std::fopen(model_path.path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST(ShardRefreshHubTest, EveryShardFoldsEverySessionsRecords) {
  TempPath xeon_model("hub_xeon.model.json");
  TempPath test_model("hub_test.model.json");
  Network net = tiny_network("hub_tiny");
  ShardRefreshHub hub;
  auto options_for = [](const std::string& path) {
    RefreshOptions ropts;
    ropts.period_rounds = 2;
    ropts.publish_path = path;
    return ropts;
  };
  ExperienceRefresher* xeon =
      hub.register_shard("xeon", HardwareConfig::xeon_6226r(),
                         options_for(xeon_model.path), test_resolver({net}));
  ExperienceRefresher* test =
      hub.register_shard("test", HardwareConfig::test_config(),
                         options_for(test_model.path), test_resolver({net}));
  ASSERT_NE(xeon, nullptr);
  ASSERT_NE(test, nullptr);
  EXPECT_NE(xeon, test);
  // A second registration under a taken name returns the first refresher.
  EXPECT_EQ(hub.register_shard("xeon", HardwareConfig::rtx3090(),
                               options_for("unused.model.json"),
                               test_resolver({net})),
            xeon);
  EXPECT_EQ(hub.refresher("xeon"), xeon);
  EXPECT_EQ(hub.refresher("test"), test);
  EXPECT_EQ(hub.refresher("unknown"), nullptr);
  EXPECT_EQ(hub.num_shards(), 2u);

  /// Counts what one session hands its callbacks.
  struct Counter : TuningCallback {
    std::size_t records = 0;
    int rounds = 0;
    void on_records(const TaskScheduler&, int,
                    const std::vector<MeasuredRecord>& batch) override {
      records += batch.size();
    }
    void on_round(const TaskScheduler&, const RoundEvent&) override {
      rounds += 1;
    }
  } counter;

  // One session on one shard's hardware: both shards fold every record.
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  TuningSession session(net, hw, tiny_options(PolicyKind::kRandom, 11));
  session.add_callback(&hub);
  session.add_callback(&counter);
  session.run(60);
  ASSERT_GT(counter.records, 0u);
  ASSERT_GE(counter.rounds, 2);
  EXPECT_EQ(xeon->records_folded(), counter.records);
  EXPECT_EQ(test->records_folded(), counter.records);
  // Rounds reach both too: each refits on its own period.
  EXPECT_GT(xeon->refreshes(), 0u);
  EXPECT_GT(test->refreshes(), 0u);
  EXPECT_EQ(hub.total_refreshes(), xeon->refreshes() + test->refreshes());

  // A second session adds its batch size again to every shard.
  std::size_t before = counter.records;
  TuningSession again(net, HardwareConfig::test_config(),
                      tiny_options(PolicyKind::kRandom, 12));
  again.add_callback(&hub);
  again.add_callback(&counter);
  again.run(20);
  ASSERT_GT(counter.records, before);
  EXPECT_EQ(xeon->records_folded(), counter.records);
  EXPECT_EQ(test->records_folded(), counter.records);
}

TEST(RefresherTest, FleetSiblingPicksUpMidRunRepublish) {
  // Two workloads, tuned strictly one after the other on one fleet thread.
  // The refresher republishes during/after the first; the second session is
  // constructed later, so it must start from the refreshed model and stamp
  // its records with the refreshed fingerprint — while the first workload's
  // records stay a cold (xm=0) segment.  verify_resume must pass on both
  // segments against their respective models.
  std::string dir = "fleet_refresh_logs";
  std::string cmd = "rm -rf " + dir;
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  Network net_a = tiny_network("tinyA");
  Network net_b = tiny_network("tinyB");
  HardwareConfig hw = HardwareConfig::xeon_6226r();
  hw.noise_sigma = 0.05;

  FleetTuner::Options fo;
  fo.max_concurrent = 1;  // deterministic construction order: A then B
  fo.log_dir = dir;
  fo.refresh_period = 3;
  fo.refresh_snapshots = true;
  fo.refresh_resolver = test_resolver({net_a, net_b});
  FleetTuner fleet(fo);

  FleetWorkload wa;
  wa.network = net_a;
  wa.hardware = hw;
  wa.options = tiny_options(PolicyKind::kHarl, 5);
  wa.trials = 100;
  fleet.add(std::move(wa));
  FleetWorkload wb;
  wb.network = net_b;
  wb.hardware = hw;
  wb.options = tiny_options(PolicyKind::kHarl, 5);
  wb.trials = 100;
  fleet.add(std::move(wb));

  FleetReport report = fleet.run();
  ASSERT_EQ(report.networks.size(), 2u);
  ASSERT_NE(fleet.refresher(), nullptr);
  EXPECT_GT(fleet.refresher()->refreshes(), 0u);

  // Segment 1 (pre-republish): workload A ran cold, so every record carries
  // xm == 0.
  std::vector<TuningRecord> recs_a = read_records(fleet.log_path(0));
  ASSERT_FALSE(recs_a.empty());
  for (const TuningRecord& r : recs_a) EXPECT_EQ(r.experience_fp, 0u);

  // Segment 2 (post-republish): workload B picked up the refreshed model —
  // one consistent non-zero fingerprint across its whole log.
  std::vector<TuningRecord> recs_b = read_records(fleet.log_path(1));
  ASSERT_FALSE(recs_b.empty());
  std::uint64_t fp_b = recs_b.front().experience_fp;
  EXPECT_NE(fp_b, 0u);
  for (const TuningRecord& r : recs_b) EXPECT_EQ(r.experience_fp, fp_b);

  // verify_resume on the pre-republish segment: a cold session of the same
  // configuration reproduces every logged time.
  {
    TuningSession session(net_a, hw, tiny_options(PolicyKind::kHarl, 5));
    VerifyResumeReport vr = verify_resume(session, recs_a);
    EXPECT_EQ(vr.matched, recs_a.size());
    EXPECT_GT(vr.checked, 0u);
    EXPECT_TRUE(vr.ok());
  }

  // verify_resume on the post-republish segment needs the *exact* model the
  // segment was produced under; the per-republish snapshot keeps it
  // addressable by fingerprint even after later refreshes moved the main
  // published file on.
  {
    std::string snapshot =
        dir + "/experience.model.json." + std::to_string(fp_b);
    auto model = std::make_shared<Gbdt>();
    std::string error;
    ASSERT_TRUE(load_gbdt(snapshot, model.get(), &error)) << error;
    SearchOptions warm = tiny_options(PolicyKind::kHarl, 5);
    warm.cost_model.pretrained = model;
    TuningSession session(net_b, hw, warm);
    ASSERT_EQ(session.scheduler().experience_fingerprint(), fp_b);
    VerifyResumeReport vr = verify_resume(session, recs_b);
    EXPECT_EQ(vr.matched, recs_b.size());
    EXPECT_GT(vr.checked, 0u);
    EXPECT_TRUE(vr.ok());

    // Partitioning: the warm identity matches nothing in the cold segment,
    // and vice versa — the fingerprint keeps the streams strictly apart.
    TuningSession cold_b(net_b, hw, tiny_options(PolicyKind::kHarl, 5));
    EXPECT_EQ(resume_session(cold_b, fleet.log_path(1)).records_matched, 0u);
  }

  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

}  // namespace
}  // namespace harl
