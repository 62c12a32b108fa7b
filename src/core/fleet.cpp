#include "core/fleet.hpp"

#include <sys/stat.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <limits>

#include "cost/gbdt_io.hpp"
#include "io/async_bus.hpp"
#include "io/resume.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace harl {

namespace {

/// Workload names become file names; keep only portable characters.
std::string sanitize_for_filename(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '-' || c == '.';
    out += ok ? c : '_';
  }
  return out.empty() ? "workload" : out;
}

/// Jobs running on any fleet of this process (a daemon runs one fleet per
/// hardware shard).  The heap is per process, so the trim in worker_loop
/// asks whether any fleet's job is running, not only its own.
std::atomic<int> running_fleet_jobs{0};

}  // namespace

const char* fleet_job_state_name(FleetJobState state) {
  switch (state) {
    case FleetJobState::kQueued: return "queued";
    case FleetJobState::kRunning: return "running";
    case FleetJobState::kStopped: return "stopped";
    case FleetJobState::kDone: return "done";
  }
  return "?";
}

FleetTuner::~FleetTuner() {
  // Never tune leftover queue entries on teardown — checkpoint what runs
  // and join.
  drain();
  stop();
}

int FleetTuner::add(FleetWorkload workload) {
  if (workload.name.empty()) workload.name = workload.network.name;
  std::lock_guard<std::mutex> lk(mu_);
  workloads_.push_back(std::move(workload));
  sessions_.emplace_back();
  loggers_.emplace_back();
  results_.emplace_back();
  states_.push_back(FleetJobState::kQueued);
  return static_cast<int>(workloads_.size()) - 1;
}

int FleetTuner::num_workloads() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(workloads_.size());
}

int FleetTuner::submit(FleetWorkload workload) {
  int index = add(std::move(workload));
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (started_) {
      if (refresher_ == nullptr && opts_.refresh_period > 0) {
        // The refresher needs a hardware config to featurize against; a
        // fleet started empty creates it on the first submitted workload.
        init_shared_state_locked();
      }
      pending_.push_back(static_cast<std::size_t>(index));
    }
  }
  work_cv_.notify_one();
  return index;
}

bool FleetTuner::started() const {
  std::lock_guard<std::mutex> lk(mu_);
  return started_;
}

std::string FleetTuner::log_path_locked(std::size_t idx) const {
  std::string stem = sanitize_for_filename(workloads_.at(idx).name);
  // Distinct workloads must never share a log file: interleaved appends from
  // two fleet threads would tear lines and double-count resume skips.  Any
  // earlier workload whose *sanitized* name collides (duplicate names, or
  // "net/a" vs "net_a") forces this one onto an index-suffixed file; the
  // suffix is the stable workload index, so resume finds the same file as
  // long as workloads are added in the same order.
  for (std::size_t j = 0; j < idx; ++j) {
    if (sanitize_for_filename(workloads_[j].name) == stem) {
      stem += "_" + std::to_string(idx);
      break;
    }
  }
  return opts_.log_dir + "/" + stem + ".jsonl";
}

std::string FleetTuner::log_path(int i) const {
  std::lock_guard<std::mutex> lk(mu_);
  return log_path_locked(static_cast<std::size_t>(i));
}

void FleetTuner::init_shared_state_locked() {
  logging_ = !opts_.log_dir.empty();
  if (logging_) {
    // Create the log directory, parents included (mkdir -p; EEXIST is fine).
    std::size_t pos = 0;
    while (pos != std::string::npos) {
      pos = opts_.log_dir.find('/', pos + 1);
      std::string prefix = opts_.log_dir.substr(0, pos);
      if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 &&
          errno != EEXIST) {
        HARL_LOG_WARN("fleet: cannot create log dir %s; logging disabled",
                      prefix.c_str());
        logging_ = false;
        break;
      }
    }
  }

  // One shared pretrained model for the whole fleet: loaded here, handed to
  // every session that does not bring its own (TaskScheduler would otherwise
  // re-read the file once per workload).
  if (fleet_pretrained_ == nullptr && !opts_.experience_model.empty()) {
    auto model = std::make_shared<Gbdt>();
    std::string error;
    if (!load_gbdt(opts_.experience_model, model.get(), &error)) {
      HARL_LOG_WARN("fleet: experience model ignored: %s", error.c_str());
    } else if (model->num_features() != FeatureExtractor::kNumFeatures) {
      HARL_LOG_WARN(
          "fleet: experience model %s has %d features (extractor has %d); "
          "ignored",
          opts_.experience_model.c_str(), model->num_features(),
          FeatureExtractor::kNumFeatures);
    } else {
      // Hash once here: per-session hashing would re-serialize the shared
      // forest on every fleet thread.
      fleet_pretrained_fp_ = gbdt_fingerprint(*model);
      fleet_pretrained_ = std::move(model);
    }
  }

  // One shared partial-schedule value model, same contract: loaded once,
  // handed to every session that does not bring its own.
  if (fleet_value_ == nullptr && !opts_.value_model.empty()) {
    auto model = std::make_shared<Gbdt>();
    std::string error;
    if (!load_gbdt(opts_.value_model, model.get(), &error)) {
      HARL_LOG_WARN("fleet: value model ignored: %s", error.c_str());
    } else if (model->num_features() != FeatureExtractor::kNumPrefixFeatures) {
      HARL_LOG_WARN(
          "fleet: value model %s has %d features (prefix extractor has %d); "
          "ignored",
          opts_.value_model.c_str(), model->num_features(),
          FeatureExtractor::kNumPrefixFeatures);
    } else {
      fleet_value_fp_ = gbdt_fingerprint(*model);
      fleet_value_ = std::move(model);
    }
  }

  // One fleet-shared refresher: every session feeds it, and every session
  // constructed after a republish starts from its latest model.  Deferred
  // while the fleet has no workload (featurization needs a hardware config).
  if (refresher_ == nullptr && opts_.refresh_period > 0 && !workloads_.empty()) {
    RefreshOptions ropts;
    ropts.period_rounds = opts_.refresh_period;
    ropts.publish_path = opts_.refresh_path;
    if (ropts.publish_path.empty() && logging_) {
      ropts.publish_path = opts_.log_dir + "/experience.model.json";
    }
    ropts.snapshot_history = opts_.refresh_snapshots;
    refresher_ = std::make_unique<ExperienceRefresher>(
        workloads_[0].hardware, ropts,
        opts_.refresh_resolver != nullptr ? opts_.refresh_resolver
                                          : make_builtin_resolver());
    refresher_->set_base_model(fleet_pretrained_, fleet_pretrained_fp_);
  }

  // One fleet-shared cache updater: every committed measurement becomes
  // servable (L1) in the caller's KnowledgeCache while the fleet still runs.
  if (cache_updater_ == nullptr && opts_.knowledge_cache != nullptr) {
    CacheUpdateOptions copts;
    copts.save_period_rounds = opts_.cache_save_period;
    copts.save_path = opts_.cache_save_path;
    if (copts.save_path.empty() && logging_) {
      copts.save_path = opts_.log_dir + "/knowledge.cache.json";
    }
    cache_updater_ =
        std::make_unique<KnowledgeCacheUpdater>(opts_.knowledge_cache, copts);
    if (opts_.knowledge_cache->model() == nullptr &&
        fleet_pretrained_ != nullptr) {
      opts_.knowledge_cache->set_model(fleet_pretrained_);
    }
  }
}

void FleetTuner::start() {
  std::size_t nthreads;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (started_) return;
    stop_ = false;
    draining_ = false;
    init_shared_state_locked();
    started_ = true;
    nthreads = opts_.max_concurrent > 0
                   ? static_cast<std::size_t>(opts_.max_concurrent)
                   : std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void FleetTuner::drain() {
  std::lock_guard<std::mutex> lk(mu_);
  draining_ = true;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (states_[i] == FleetJobState::kRunning && sessions_[i] != nullptr) {
      sessions_[i]->request_stop();
    }
  }
  // Workers blocked on the queue re-check (and keep waiting: a draining
  // fleet dequeues nothing new); wait_idle() re-evaluates its predicate.
  work_cv_.notify_all();
  idle_cv_.notify_all();
}

void FleetTuner::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] {
    return active_ == 0 && (pending_.empty() || draining_);
  });
}

void FleetTuner::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!started_ && workers_.empty()) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& th : workers_) th.join();
  workers_.clear();
  std::lock_guard<std::mutex> lk(mu_);
  started_ = false;
  stop_ = false;
}

void FleetTuner::worker_loop() {
  for (;;) {
    std::size_t i;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [this] {
        return stop_ || (!draining_ && !pending_.empty());
      });
      if (draining_ || pending_.empty()) {
        if (stop_) return;
        continue;  // draining without stop: park until stop()
      }
      i = pending_.front();
      pending_.pop_front();
      states_[i] = FleetJobState::kRunning;
      ++active_;
      running_fleet_jobs.fetch_add(1);
    }
    tune_one(i);
    FleetNetworkResult snapshot;
    {
      std::lock_guard<std::mutex> lk(mu_);
      snapshot = results_[i];
      --active_;
    }
    bool last_running = running_fleet_jobs.fetch_sub(1) == 1;
    // glibc keeps freed pages resident, so without a trim the process RSS
    // ratchets up to its worst job: a daemon held 16.3 MB after one bert
    // job with 0.4 MB in use, the rest the job's freed PPO weights, Adam
    // moments and replay rings.  The trim (about 1 ms) runs only when no
    // job of any fleet in the process is running: it locks every arena and
    // drops every free page, which stalls a running job's mallocs and makes
    // it fault its freed pages back in.  Of jobs that end together, the
    // last one to get here trims.
#ifdef __GLIBC__
    if (last_running) malloc_trim(0);
#else
    (void)last_running;
#endif
    idle_cv_.notify_all();
    // Outside the lock: the hook may call submit() (re-admitting a drained
    // job) or take server-side locks of its own.
    if (opts_.on_complete) {
      opts_.on_complete(static_cast<int>(i), snapshot);
    }
  }
}

void FleetTuner::tune_one(std::size_t i) {
  const FleetWorkload* w;
  std::string path;
  bool logging;
  ExperienceRefresher* refresher;
  KnowledgeCacheUpdater* cache_updater;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Deque elements are reference-stable across submits, and a workload is
    // immutable once added, so the pointer is safe to use unlocked.  The
    // shared observers are snapshotted here because submit() may create the
    // refresher concurrently (fleet started empty); once created they live
    // until the next run().
    w = &workloads_[i];
    logging = logging_;
    if (logging) path = log_path_locked(i);
    refresher = refresher_.get();
    cache_updater = cache_updater_.get();
  }
  SearchOptions opts = w->options;
  if (opts.pool == nullptr) opts.pool = opts_.measure_pool;
  if (opts.cost_model.pretrained == nullptr && opts.experience_model.empty()) {
    ExperienceRefresher::Published latest;
    if (refresher != nullptr) latest = refresher->published();
    if (latest.model == nullptr && opts_.shared_refresher != nullptr) {
      // Cross-shard warm-up: an externally-fed refresher (records may come
      // from sibling shards) republished a model for this shard's hardware.
      latest = opts_.shared_refresher->published();
    }
    if (latest.model != nullptr) {
      // Mid-run warm-up: the latest republish supersedes the (cold or
      // static) fleet model for sessions constructed after it.  The
      // session's records stamp the refreshed fingerprint, partitioning
      // its log segment from pre-republish ones.
      opts.cost_model.pretrained = std::move(latest.model);
      opts.cost_model.pretrained_fingerprint = latest.fingerprint;
    } else if (fleet_pretrained_ != nullptr) {
      opts.cost_model.pretrained = fleet_pretrained_;
      opts.cost_model.pretrained_fingerprint = fleet_pretrained_fp_;
    }
  }
  // Fleet-shared value head for workloads that bring no model of their own.
  // `enabled` is forced on: the fleet operator opting into --value-model
  // means every admitted job runs guided (and stamps `vm` accordingly).
  if (fleet_value_ != nullptr && opts.value_guide.model == nullptr &&
      opts.value_guide.model_path.empty()) {
    opts.value_guide.enabled = true;
    opts.value_guide.model = fleet_value_;
    opts.value_guide.model_fingerprint = fleet_value_fp_;
  }
  auto t0 = std::chrono::steady_clock::now();
  // Session construction (sketch generation per subgraph) is part of the
  // serving cost, so it runs on the fleet thread and counts in wall time.
  auto session = std::make_unique<TuningSession>(w->network, w->hardware, opts);
  TuningSession* s;
  {
    std::lock_guard<std::mutex> lk(mu_);
    sessions_[i] = std::move(session);
    s = sessions_[i].get();
    // A drain that raced session construction would miss this session in
    // its request_stop sweep — honor it here so the job stops before its
    // first round.
    if (draining_) s->request_stop();
  }
  // Every consumer of this workload runs on the workload's own dispatcher
  // thread: a slow one cannot stall its tuning thread, and one that throws
  // is counted in `bus_consumer_errors` instead of escaping onto this
  // fleet worker.
  auto bus = std::make_unique<AsyncCallbackBus>();
  s->add_callback(bus.get());
  RecordLogger* logger = nullptr;
  if (logging) {
    // Warm start: replay whatever a previous run already measured, then
    // append the new records after the replayed ones.
    // Self-heal before resuming: a corrupt log would otherwise poison the
    // replay table.  The valid prefix survives; evidence is quarantined.
    SalvageResult sv = salvage_log(path);
    if (sv.salvaged) {
      HARL_LOG_WARN("fleet: salvaged %s: kept %zu lines, dropped %zu (original -> %s)",
                    path.c_str(), sv.lines_kept, sv.lines_dropped,
                    sv.quarantine_path.c_str());
    } else if (!sv.error.empty()) {
      HARL_LOG_WARN("fleet: salvage of %s failed: %s", path.c_str(),
                    sv.error.c_str());
    }
    ResumeStats stats = resume_session(*s, path);
    auto owned = std::make_unique<RecordLogger>();
    if (owned->open(path, /*append=*/true)) {
      owned->set_skip(stats.records_matched);
      bus->add(owned.get());
      logger = owned.get();
      std::lock_guard<std::mutex> lk(mu_);
      loggers_[i] = std::move(owned);
    } else {
      HARL_LOG_WARN("fleet: cannot open record log %s", path.c_str());
    }
  }
  for (TuningCallback* cb : w->callbacks) bus->add(cb);
  bus->add(refresher);
  bus->add(cache_updater);
  s->run(w->trials);
  if (cache_updater != nullptr) cache_updater->save_now();
  auto t1 = std::chrono::steady_clock::now();

  FleetNetworkResult r;
  r.name = w->name;
  r.num_tasks = s->scheduler().num_tasks();
  for (int t = 0; t < r.num_tasks; ++t) {
    r.task_best_ms.push_back(s->task_best_ms(t));
  }
  r.trials_used = s->measurer().trials_used();
  r.latency_ms = s->latency_ms();
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.cache_hits = s->measurer().cache().hits();
  r.rounds = s->scheduler().round_log().size();
  r.replayed_trials = s->measurer().replayed();
  r.records_logged = logger != nullptr ? logger->written() : 0;
  r.failed_measurements = s->measurer().failed();
  r.quarantined = s->measurer().quarantined_schedules();
  r.bus_consumer_errors = bus->consumer_errors();
  r.completed =
      s->scheduler().last_run_exit() != TaskScheduler::RunExit::kStopped;
  // Observed improvement this run bought (ms): the first finite latency
  // estimate in the round log minus the final one.
  const std::vector<TaskScheduler::RoundLog>& log = s->scheduler().round_log();
  double first_finite = std::numeric_limits<double>::quiet_NaN();
  for (const TaskScheduler::RoundLog& e : log) {
    if (std::isfinite(e.net_latency_ms)) {
      first_finite = e.net_latency_ms;
      break;
    }
  }
  if (!log.empty() && std::isfinite(first_finite) &&
      std::isfinite(log.back().net_latency_ms)) {
    r.latency_gain_ms = std::max(0.0, first_finite - log.back().net_latency_ms);
  }

  // Release the job's search state: a fleet keeps only the results of
  // finished jobs, so memory and open fds track running jobs.  The bus goes
  // first — its destructor drains into the logger, the cache updater and
  // user callbacks while the session they read is still alive — then the
  // session, then the logger (worker_loop then hands the freed pages back
  // to the OS if no job of any fleet is running).  The state flips only
  // afterwards, so kDone/kStopped (and on_complete) follow every event and
  // every close of the job.
  std::unique_ptr<TuningSession> finished;
  std::unique_ptr<RecordLogger> finished_logger;
  {
    std::lock_guard<std::mutex> lk(mu_);
    results_[i] = std::move(r);
    finished = std::move(sessions_[i]);
    finished_logger = std::move(loggers_[i]);
  }
  bus.reset();
  finished.reset();
  finished_logger.reset();
  std::lock_guard<std::mutex> lk(mu_);
  states_[i] =
      results_[i].completed ? FleetJobState::kDone : FleetJobState::kStopped;
}

FleetJobState FleetTuner::workload_state(int i) const {
  std::lock_guard<std::mutex> lk(mu_);
  return states_.at(static_cast<std::size_t>(i));
}

FleetNetworkResult FleetTuner::result(int i) const {
  std::lock_guard<std::mutex> lk(mu_);
  return results_.at(static_cast<std::size_t>(i));
}

FleetReport FleetTuner::report_locked() const {
  FleetReport report;
  for (std::size_t i = 0; i < results_.size(); ++i) {
    if (states_[i] != FleetJobState::kDone &&
        states_[i] != FleetJobState::kStopped) {
      continue;
    }
    report.networks.push_back(results_[i]);
    report.total_trials += results_[i].trials_used;
    report.total_cache_hits += results_[i].cache_hits;
  }
  return report;
}

FleetReport FleetTuner::report() const {
  std::lock_guard<std::mutex> lk(mu_);
  return report_locked();
}

FleetReport FleetTuner::run() {
  stop();  // a leftover incremental phase would double-run the queue
  std::size_t n;
  {
    std::lock_guard<std::mutex> lk(mu_);
    n = workloads_.size();
    // Each run() re-tunes the full fleet from scratch (warm-started only by
    // the durable logs): per-run state resets, shared state reloads.
    sessions_.clear();
    sessions_.resize(n);
    loggers_.clear();
    loggers_.resize(n);
    results_.assign(n, FleetNetworkResult{});
    states_.assign(n, FleetJobState::kQueued);
    pending_.clear();
    draining_ = false;
    refresher_.reset();
    cache_updater_.reset();
    fleet_pretrained_.reset();
    fleet_pretrained_fp_ = 0;
    fleet_value_.reset();
    fleet_value_fp_ = 0;
  }
  FleetReport report;
  report.networks.resize(n);
  if (n == 0) return report;

  auto fleet_t0 = std::chrono::steady_clock::now();
  start();
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < n; ++i) pending_.push_back(i);
  }
  work_cv_.notify_all();
  wait_idle();
  stop();
  auto fleet_t1 = std::chrono::steady_clock::now();

  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < n; ++i) report.networks[i] = results_[i];
  }
  report.wall_seconds = std::chrono::duration<double>(fleet_t1 - fleet_t0).count();
  for (const FleetNetworkResult& r : report.networks) {
    report.total_trials += r.trials_used;
    report.total_cache_hits += r.cache_hits;
  }
  return report;
}

std::string FleetReport::to_string() const {
  Table t("fleet tuning report");
  t.set_header({"network", "tasks", "trials", "replayed", "cache_hits",
                "failed", "quarantined", "bus_errors", "latency_ms", "wall_s"});
  std::int64_t total_replayed = 0;
  std::int64_t total_failed = 0;
  std::size_t total_quarantined = 0;
  std::uint64_t total_bus_errors = 0;
  for (const FleetNetworkResult& r : networks) {
    t.add(r.name, r.num_tasks, r.trials_used, r.replayed_trials, r.cache_hits,
          r.failed_measurements, r.quarantined,
          std::to_string(r.bus_consumer_errors), r.latency_ms, r.wall_seconds);
    total_replayed += r.replayed_trials;
    total_failed += r.failed_measurements;
    total_quarantined += r.quarantined;
    total_bus_errors += r.bus_consumer_errors;
  }
  t.add("TOTAL", "", total_trials, total_replayed, total_cache_hits,
        total_failed, total_quarantined, std::to_string(total_bus_errors), "",
        wall_seconds);
  return t.to_string();
}

}  // namespace harl
