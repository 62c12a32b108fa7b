#pragma once

/// \file fleet.hpp
/// FleetTuner: many networks tuned concurrently on one shared worker pool —
/// the multi-tenant serving engine, with per-workload durable logs, warm
/// start, async callback dispatch, in-run experience refresh, and *live*
/// workload submission (`start`/`submit`) so a long-lived daemon can feed
/// jobs into a running fleet.  Invariant: without refresh, each network's
/// result is bit-identical to tuning it alone.  Collaborators:
/// TuningSession, RecordLogger, resume, ExperienceRefresher, HarlServer.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/tuning.hpp"
#include "exp/refresh.hpp"
#include "io/record_logger.hpp"
#include "serve/cache_updater.hpp"

namespace harl {

/// One network to tune as part of a fleet run.
struct FleetWorkload {
  std::string name;          ///< defaults to the network's name when empty
  Network network;
  HardwareConfig hardware;
  SearchOptions options;     ///< options.pool == nullptr inherits the fleet pool
  std::int64_t trials = 1000;  ///< measurement-trial budget for this network
  /// Extra observers registered on this workload's session (not owned;
  /// must outlive the workload's run).  A callback shared across workloads
  /// runs on several fleet threads at once and must be thread-safe.
  std::vector<TuningCallback*> callbacks;
};

/// Lifecycle of one queued workload (the daemon's job states).
enum class FleetJobState {
  kQueued,   ///< waiting for a fleet worker
  kRunning,  ///< a worker is tuning it now
  kStopped,  ///< interrupted by `drain()` mid-budget; its log is a
             ///< complete-round checkpoint a future run resumes from
  kDone,     ///< budget spent (or search saturated); result is final
};

const char* fleet_job_state_name(FleetJobState state);

/// Per-network outcome of a fleet run.
struct FleetNetworkResult {
  std::string name;
  int num_tasks = 0;
  std::int64_t trials_used = 0;
  double latency_ms = 0;        ///< estimated network latency after tuning
  /// Best measured time per task (ms), indexed like the network's
  /// subgraphs; infinity for a task with no valid measurement.
  std::vector<double> task_best_ms;
  double wall_seconds = 0;      ///< wall-clock time of this session's tuning
  std::int64_t cache_hits = 0;  ///< measure-cache hits (deduplicated trials)
  std::size_t rounds = 0;       ///< completed scheduler rounds
  std::int64_t replayed_trials = 0;  ///< trials served from a warm-start log
  std::size_t records_logged = 0;    ///< records appended to the shared log dir
  std::int64_t failed_measurements = 0;  ///< trials that ended in a failed state
  std::size_t quarantined = 0;       ///< schedules quarantined after repeat failures
  /// Exceptions the workload's callbacks threw (one per event and
  /// callback), caught on its dispatcher thread; the run goes on.
  std::uint64_t bus_consumer_errors = 0;
  /// False when `drain()` stopped the session before its budget was spent —
  /// the workload is checkpointed, not finished, and should be resubmitted
  /// (its log warm-starts the rerun bit-identically).
  bool completed = true;
  /// First finite network-latency estimate minus the final one (ms): the
  /// observed improvement this run bought.  Feeds the server's Eq. 3
  /// cross-tenant gradient as the backward (observed-rate) term.
  double latency_gain_ms = 0;
};

/// Aggregated outcome of `FleetTuner::run`.
struct FleetReport {
  std::vector<FleetNetworkResult> networks;
  double wall_seconds = 0;        ///< end-to-end fleet wall-clock time
  std::int64_t total_trials = 0;  ///< simulator trials across the fleet
  std::int64_t total_cache_hits = 0;

  /// Aligned ASCII table, one row per network plus a totals row.
  std::string to_string() const;
};

/// Tunes many networks concurrently on one shared worker pool — the
/// multi-tenant serving scenario where an auto-scheduler instance handles
/// tuning requests from many models/users at once.
///
/// Concurrency has two levels, mirroring the engine's design:
///   - each workload runs as its own `TuningSession` on a fleet worker
///     thread (bounded by `Options::max_concurrent`),
///   - every session's batched measurement and candidate scoring dispatch
///     onto the one shared `Options::measure_pool` (caller-participating, so
///     sessions never deadlock on a small pool).
///
/// Two driving modes share the same engine:
///   - **batch**: `add()` workloads, then `run()` — tunes everything queued
///     and blocks until all budgets are spent (each `run()` re-runs the full
///     fleet from scratch);
///   - **incremental** (the daemon mode): `start()` the workers once, then
///     `submit()` workloads at any time from any thread; completions are
///     reported through `Options::on_complete`, `drain()` checkpoints
///     running sessions at a round boundary, and `stop()` joins.
///
/// Results per network are bit-identical to tuning that network alone with
/// the same options: sessions share threads but no tuning state, and all
/// determinism is per-(session seed, trial index).
///
/// Every running workload owns one `AsyncCallbackBus`: its record logger,
/// its `FleetWorkload::callbacks`, the refresher and the cache updater run
/// on that bus's dispatcher thread, never on the workload's tuning thread.
///
/// A workload holds its bus, `TuningSession` and `RecordLogger` only while
/// it runs: once it finishes (or is drained) all three are destroyed and
/// only its `FleetNetworkResult` remains, so a long-lived fleet's memory,
/// threads and open fds scale with running workloads, not with workloads
/// served.
class FleetTuner {
 public:
  struct Options {
    /// Max sessions tuned at once; 0 = hardware concurrency.
    int max_concurrent = 0;
    /// Pool for measurement/scoring inside every session; nullptr = the
    /// process-wide global pool.  Not owned.
    ThreadPool* measure_pool = nullptr;
    /// Shared record-log directory.  When non-empty, every workload logs its
    /// records to `<log_dir>/<name>.jsonl` (created on demand) and — if that
    /// file already holds records of the same run identity — warm-starts
    /// from it via `resume_session`, replaying logged trials instead of
    /// re-simulating them.  A fleet killed mid-run therefore resumes every
    /// network from its last completed round on the next `run()`.
    std::string log_dir;
    /// Pretrained experience model (`harl_harvest harvest` output) applied
    /// to every workload that does not carry its own
    /// `cost_model.pretrained` / `experience_model`.  Loaded once per fleet
    /// run and shared read-only across all sessions.
    std::string experience_model;
    /// Partial-schedule value model (`harl_harvest value` output) applied to
    /// every workload that does not carry its own `value_guide` model/path.
    /// Loaded once per fleet run and shared read-only; sessions it reaches
    /// run value-guided (beam pruning + trial filter per their
    /// `value_guide` knobs) and stamp its fingerprint as `vm`.
    std::string value_model;
    /// In-run experience refresh: when > 0, one fleet-shared
    /// `ExperienceRefresher` observes every session, folds each finished
    /// round into a common `ExperienceStore`, and refits + republishes the
    /// model every `refresh_period` observed rounds.  Workloads whose
    /// sessions are constructed *after* a republish (and that bring no
    /// model of their own) start from the refreshed model — mid-run warm-up
    /// — and their records stamp the refreshed `xm` fingerprint.
    /// Featurization targets the first workload's hardware; prefer one
    /// refresher per hardware class in heterogeneous fleets.
    int refresh_period = 0;
    /// File the refresher republishes to.  Empty with `log_dir` set derives
    /// `<log_dir>/experience.model.json`; empty otherwise keeps the
    /// refreshed model in-memory (sibling pickup still works within the
    /// fleet run).
    std::string refresh_path;
    /// Keep a `<refresh_path>.<fingerprint>` snapshot per republish, so
    /// every log segment stays verifiable against the exact model that
    /// produced it (`verify_resume` needs matching `xm`).
    bool refresh_snapshots = false;
    /// Maps record (network, task) provenance back to subgraphs for the
    /// refresher's refits.  Null = `make_builtin_resolver()`; fleets tuning
    /// custom networks must supply their own or refits harvest zero rows.
    TaskResolver refresh_resolver;
    /// Externally-owned refresher whose `published()` model warm-starts
    /// sessions constructed after a republish, exactly like the fleet-owned
    /// one — but the fleet does *not* register it on its sessions: the owner
    /// (e.g. a `ShardRefreshHub` fanning records across hardware-class
    /// shards) decides what feeds it.  Ignored when `refresh_period > 0`
    /// creates a fleet-owned refresher.  Must outlive the running phase.
    ExperienceRefresher* shared_refresher = nullptr;
    /// Serving cache kept warm during the run (src/serve/): when set, a
    /// fleet-shared `KnowledgeCacheUpdater` observes every session and folds
    /// each committed measurement into this cache, so concurrent `serve`
    /// queries see new bests within one callback delivery.  Not owned; must
    /// outlive the fleet's running phase.
    KnowledgeCache* knowledge_cache = nullptr;
    /// Republish the cache file every this many observed rounds (and once
    /// at the end of each session).  <= 0 disables periodic publishes.
    int cache_save_period = 8;
    /// File the cache updater republishes to.  Empty with `log_dir` set
    /// derives `<log_dir>/knowledge.cache.json`; empty otherwise keeps the
    /// cache in-memory only.
    std::string cache_save_path;
    /// Incremental-mode completion hook: called on the fleet worker thread
    /// after a workload finishes (or is drained — check
    /// `FleetNetworkResult::completed`) and its bus, session and logger are
    /// destroyed, so no event of that workload reaches a callback after it.
    /// May call `submit()`; must not block for long (it occupies a tuning
    /// worker).
    std::function<void(int index, const FleetNetworkResult&)> on_complete;
  };

  FleetTuner() = default;
  explicit FleetTuner(Options opts) : opts_(std::move(opts)) {}
  ~FleetTuner();

  FleetTuner(const FleetTuner&) = delete;
  FleetTuner& operator=(const FleetTuner&) = delete;

  /// Queues a workload; returns its index (stable across `run`).  Does not
  /// enqueue for a running fleet — `run()` executes everything added, or use
  /// `submit()` in incremental mode.
  int add(FleetWorkload workload);

  int num_workloads() const;

  /// Tunes every queued workload and blocks until all budgets are spent.
  /// Callable repeatedly; each call re-runs the full fleet from scratch.
  FleetReport run();

  // ---- incremental mode (the daemon's engine) --------------------------
  /// Spawns the worker threads and initializes the fleet-shared state
  /// (log dir, pretrained model, refresher, cache updater).  Idempotent.
  void start();
  bool started() const;
  /// Thread-safe: queue `workload` into the running fleet and return its
  /// index.  Requires `start()`; a fleet worker picks it up as soon as one
  /// is free.
  int submit(FleetWorkload workload);
  /// Graceful drain: stop dequeuing new workloads and ask every *running*
  /// session to stop at its next round boundary (`TuningSession::
  /// request_stop`).  Their durable logs then hold complete-round
  /// checkpoints; resubmitting the same workload (same identity) to a fresh
  /// fleet resumes each one bit-identically.  Queued-but-unstarted
  /// workloads stay `kQueued`.
  void drain();
  /// Blocks until no workload is queued (unless draining) or running.
  void wait_idle();
  /// Joins the workers after they finish the queue (or immediately after
  /// in-flight sessions return, when draining).  Idempotent.
  void stop();

  /// Lifecycle of workload `i` (thread-safe).
  FleetJobState workload_state(int i) const;
  /// Result snapshot of workload `i` (meaningful once kDone/kStopped).
  FleetNetworkResult result(int i) const;
  /// Aggregated snapshot over every finished workload, in index order.
  FleetReport report() const;

  /// The record-log path workload `i` uses under `Options::log_dir`.
  std::string log_path(int i) const;

  /// The fleet-shared in-run refresher (nullptr when
  /// `Options::refresh_period == 0`).  Exposed for stats and tests.
  const ExperienceRefresher* refresher() const { return refresher_.get(); }

  /// The fleet-shared cache updater (nullptr when
  /// `Options::knowledge_cache == nullptr`).  Exposed for stats and tests.
  const KnowledgeCacheUpdater* cache_updater() const {
    return cache_updater_.get();
  }

 private:
  void init_shared_state_locked();
  void worker_loop();
  void tune_one(std::size_t i);
  std::string log_path_locked(std::size_t i) const;
  FleetReport report_locked() const;

  Options opts_;

  // All containers are indexed only under `mu_`; elements are reached
  // through pointers taken under the lock (std::deque keeps references
  // stable across push_back, so a worker's workload/session pointers
  // survive concurrent submits).  sessions_[i] and loggers_[i] are non-null
  // only while workload i runs; its worker moves them out when it finishes.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< wakes workers (submit/stop/drain)
  std::condition_variable idle_cv_;   ///< wakes wait_idle
  std::deque<FleetWorkload> workloads_;
  std::deque<std::unique_ptr<TuningSession>> sessions_;
  std::deque<std::unique_ptr<RecordLogger>> loggers_;  ///< one per workload when logging
  std::deque<FleetNetworkResult> results_;
  std::deque<FleetJobState> states_;
  std::deque<std::size_t> pending_;   ///< indices waiting for a worker
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stop_ = false;      ///< workers exit once the queue allows
  bool draining_ = false;  ///< no new dequeues; running sessions stop early
  int active_ = 0;         ///< workloads currently running
  bool logging_ = false;   ///< log_dir usable (created successfully)

  // Fleet-shared state, initialized by start() before any worker runs.
  std::shared_ptr<const Gbdt> fleet_pretrained_;
  std::uint64_t fleet_pretrained_fp_ = 0;
  std::shared_ptr<const Gbdt> fleet_value_;
  std::uint64_t fleet_value_fp_ = 0;
  std::unique_ptr<ExperienceRefresher> refresher_;      ///< when refresh_period > 0
  std::unique_ptr<KnowledgeCacheUpdater> cache_updater_;  ///< when knowledge_cache set
};

}  // namespace harl
