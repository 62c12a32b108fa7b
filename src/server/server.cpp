#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>

#include "cost/gbdt_io.hpp"
#include "exp/experience.hpp"
#include "io/json.hpp"
#include "io/safe_file.hpp"
#include "search/policy_registry.hpp"
#include "serve/shard_snapshot.hpp"
#include "util/logging.hpp"
#include "workloads/networks.hpp"

namespace harl {

namespace {

/// mkdir -p (EEXIST is fine).  Returns false on the first hard failure.
bool make_dirs(const std::string& dir) {
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    pos = dir.find('/', pos + 1);
    std::string prefix = dir.substr(0, pos);
    if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      return false;
    }
  }
  return true;
}

/// The daemon's hardware names: the preset table, with an empty name
/// meaning xeon.  `*canon` becomes the shard name.
std::optional<HardwareConfig> hardware_preset(const std::string& name,
                                              std::string* canon) {
  return HardwareConfig::preset(name.empty() ? "xeon" : name, canon);
}

bool known_network_base(const std::string& base) {
  const std::vector<std::string>& names = network_names();
  return std::find(names.begin(), names.end(), base) != names.end();
}

Response error_response(std::string message) {
  Response resp;
  resp.ok = false;
  resp.error = std::move(message);
  return resp;
}

/// (mtime, size) folded into one comparable stamp for the replica's cheap
/// "did the published file change?" poll; -1 = the file does not exist.
std::int64_t file_stamp(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return -1;
  return (static_cast<std::int64_t>(st.st_mtime) << 20) ^
         static_cast<std::int64_t>(st.st_size);
}

void accumulate(ServeStats* into, const ServeStats& s) {
  into->queries += s.queries;
  into->l1_hits += s.l1_hits;
  into->l2_hits += s.l2_hits;
  into->l3_hits += s.l3_hits;
  into->misses += s.misses;
  into->inserts += s.inserts;
  into->duplicates += s.duplicates;
  into->evictions += s.evictions;
  into->rejected += s.rejected;
  into->invalidations += s.invalidations;
  into->refreshes += s.refreshes;
}

}  // namespace

// ---------------------------------------------------------------- streaming

/// Per-job server-side TuningCallback: turns scheduler events into protocol
/// event lines for the job's subscribers.  Registered through the workload's
/// callback list, so it runs on the workload's async-bus dispatcher thread.
/// A full bus blocks its producer: a slow subscriber socket is absorbed up
/// to the bus capacity, then blocks the tuning thread; no event is ever
/// shed.
class HarlServer::ProgressPublisher : public TuningCallback {
 public:
  ProgressPublisher(HarlServer* server, std::int64_t job)
      : server_(server), job_(job) {}

  void on_round(const TaskScheduler& scheduler,
                const RoundEvent& round) override {
    Response ev;
    ev.ok = true;
    ev.event = "round";
    ev.job = job_;
    ev.round = static_cast<std::int64_t>(round.round_index);
    ev.trials_after = round.trials_after;
    if (std::isfinite(round.net_latency_ms)) {
      ev.net_latency_ms = round.net_latency_ms;
    }
    if (round.task >= 0) ev.task = scheduler.task(round.task).graph().name();
    server_->publish_event(job_, ev, /*terminal=*/false);
  }

  void on_new_best(const TaskScheduler& scheduler, int task,
                   const MeasuredRecord& best) override {
    Response ev;
    ev.ok = true;
    ev.event = "best";
    ev.job = job_;
    if (task >= 0) ev.task = scheduler.task(task).graph().name();
    ev.est_time_ms = best.time_ms;
    // No network latency here: this runs on the bus thread, and the task
    // bests it would sum belong to the tuning thread.  The `round` event
    // that follows carries the latency captured on that thread.
    server_->publish_event(job_, ev, /*terminal=*/false);
  }

 private:
  HarlServer* server_;
  std::int64_t job_;
};

/// One accepted client socket: its own reader thread, a write mutex so
/// request replies and subscription events interleave without tearing lines.
struct HarlServer::Connection {
  int fd = -1;  ///< guarded by write_mu once the reader thread runs
  std::mutex write_mu;
  std::atomic<bool> dead{false};
  std::atomic<bool> finished{false};  ///< reader thread is done; joinable now
  std::thread thread;
  std::string buffer;
};

// ---------------------------------------------------------------- lifecycle

HarlServer::HarlServer(ServerOptions opts)
    : opts_(std::move(opts)),
      registry_(opts_.default_budget, opts_.gradient_alpha),
      resolver_(make_builtin_resolver()) {}

HarlServer::~HarlServer() { shutdown(); }

std::string HarlServer::shard_dir(const std::string& name) const {
  return opts_.state_dir + "/" + name;
}

bool HarlServer::start(std::string* error) {
  if (opts_.state_dir.empty()) {
    if (error != nullptr) *error = "ServerOptions::state_dir is required";
    return false;
  }
  if (!make_dirs(opts_.state_dir)) {
    if (error != nullptr) {
      *error = "cannot create state dir " + opts_.state_dir + ": " +
               std::strerror(errno);
    }
    return false;
  }
  if (!opts_.replica) {
    // Replicas never recover or journal: the shared journal belongs to the
    // primary, and a replica admits nothing it could need to replay.
    if (!recover(error)) return false;
    std::lock_guard<std::mutex> lk(journal_mu_);
    journal_ = std::fopen((opts_.state_dir + "/jobs.jsonl").c_str(), "a");
    if (journal_ == nullptr) {
      if (error != nullptr) {
        *error = "cannot open journal " + opts_.state_dir + "/jobs.jsonl: " +
                 std::strerror(errno);
      }
      return false;
    }
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = "bind 127.0.0.1:" + std::to_string(opts_.port) + ": " +
               std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) != 0) {
    if (error != nullptr) *error = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));

  // Publish the bound port for scripts (ephemeral ports especially).  A
  // replica defaults to *no* port file: `<state_dir>/port` is the primary's
  // discovery file and the state dir is read-only territory for replicas.
  std::string port_file = opts_.port_file;
  if (port_file.empty() && !opts_.replica) {
    port_file = opts_.state_dir + "/port";
  }
  if (!port_file.empty()) {
    std::string werr;
    if (atomic_write_file(port_file, std::to_string(port_) + "\n", false,
                          &werr)) {
      port_file_ = port_file;
    } else {
      HARL_LOG_WARN("server: cannot write port file: %s", werr.c_str());
    }
  }

  if (!opts_.replica) {
    // Re-dispatch journaled jobs that never finished: same workload
    // identity, same log file — the fleet salvages + resumes each one
    // bit-identically.
    std::lock_guard<std::mutex> lk(jobs_mu_);
    dispatch_locked();
  } else {
    watch_thread_ = std::thread([this] { watch_loop(); });
  }

  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

// ---------------------------------------------------------------- replica

void HarlServer::watch_loop() {
  while (!shutdown_requested_.load()) {
    std::vector<Shard*> shards;
    {
      std::lock_guard<std::mutex> lk(jobs_mu_);
      for (auto& kv : shards_) shards.push_back(kv.second.get());
    }
    for (Shard* shard : shards) reload_shard(shard);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max(1, opts_.watch_interval_ms)));
  }
}

void HarlServer::reload_shard(Shard* shard) {
  const std::string dir = shard_dir(shard->name);
  const std::string cache_path = dir + "/knowledge.cache.json";
  const std::int64_t cache_stamp = file_stamp(cache_path);
  if (cache_stamp != shard->cache_stamp && cache_stamp != -1) {
    shard->cache_stamp = cache_stamp;
    // Read and verify the file once, then decode it into a scratch cache:
    // the live cache must keep serving the old answers unless the new file
    // is complete and sound (the CRC footer + atomic rename make a torn read
    // impossible, but a reload must also never tear the *serving* state).
    std::string text;
    std::string err;
    KnowledgeCache fresh(shard->cache.options());
    bool valid = read_checked_file(cache_path, &text, &err);
    if (valid && !cache_from_json(text, &fresh, &err)) {
      err = cache_path + ": " + err;
      valid = false;
    }
    if (!valid) {
      HARL_LOG_WARN("replica: reload of %s skipped: %s", cache_path.c_str(),
                    err.c_str());
    } else if (const std::uint64_t fp = cache_fingerprint(fresh);
               fp != shard->cache.generation()) {
      // Content actually changed: apply the same validated bytes to the live
      // cache in place (a republish since the read cannot slip in).  The
      // decode lands under the cache's own mutex, so queries serve complete
      // old-generation or new-generation answers, never a mix.  Serve
      // counters survive via the reload base.
      {
        std::lock_guard<std::mutex> lk(shard->watch_mu);
        accumulate(&shard->reload_base, shard->cache.stats());
      }
      if (cache_from_json(text, &shard->cache, &err)) {
        shard->cache.note_reload(fp);
        reloads_.fetch_add(1);
      }
    }
  }

  const std::string model_path = dir + "/experience.model.json";
  const std::int64_t model_stamp = file_stamp(model_path);
  if (model_stamp != shard->model_stamp && model_stamp != -1) {
    shard->model_stamp = model_stamp;
    auto model = std::make_shared<Gbdt>();
    std::string err;
    if (load_gbdt(model_path, model.get(), &err)) {
      shard->cache.set_model(std::move(model));
      reloads_.fetch_add(1);
    } else {
      HARL_LOG_WARN("replica: model reload of %s failed: %s",
                    model_path.c_str(), err.c_str());
    }
  }
}

void HarlServer::serve_forever() {
  while (!shutdown_requested_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  shutdown();
}

void HarlServer::shutdown() {
  {
    std::lock_guard<std::mutex> lk(shutdown_mu_);
    if (shutdown_done_) return;
    shutdown_done_ = true;
  }
  shutdown_requested_.store(true);

  if (accept_thread_.joinable()) accept_thread_.join();
  if (watch_thread_.joinable()) watch_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // The port is dead now, so take its discovery file down with it, unless
  // another daemon has since written its own port there.
  std::string port_text;
  if (!port_file_.empty() && read_text_file(port_file_, &port_text, nullptr) &&
      port_text == std::to_string(port_) + "\n") {
    ::unlink(port_file_.c_str());
  }

  // Checkpoint: ask every running session to stop at its next round
  // boundary, then wait the fleets out.  Incomplete jobs get no done marker,
  // so the next start() re-admits them.  wait_idle() runs without jobs_mu_:
  // completions need that lock to record themselves.
  std::vector<FleetTuner*> fleets;
  {
    std::lock_guard<std::mutex> lk(jobs_mu_);
    for (auto& kv : shards_) {
      if (kv.second->fleet != nullptr) fleets.push_back(kv.second->fleet.get());
    }
  }
  for (FleetTuner* fleet : fleets) fleet->drain();
  for (FleetTuner* fleet : fleets) {
    fleet->wait_idle();
    fleet->stop();
  }

  // Snapshot every hydrated shard for the next start.  From disk, not from
  // the live cache: the snapshot must equal a replay of the logs as they
  // stand, and the live cache also holds what a later salvage dropped.
  std::vector<std::pair<std::string, KnowledgeCacheOptions>> snapshots;
  if (!opts_.replica) {
    std::lock_guard<std::mutex> lk(jobs_mu_);
    for (auto& kv : shards_) {
      snapshots.emplace_back(shard_dir(kv.first), kv.second->cache.options());
    }
  }
  for (const auto& [dir, copts] : snapshots) {
    std::string err;
    if (!snapshot_shard(dir, copts, &err)) {
      HARL_LOG_WARN("server: snapshot of %s failed: %s", dir.c_str(),
                    err.c_str());
    }
  }

  {
    std::lock_guard<std::mutex> lk(journal_mu_);
    if (journal_ != nullptr) {
      std::fclose(journal_);
      journal_ = nullptr;
    }
  }

  // Connection threads poll the shutdown flag; join them all.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    subscribers_.clear();
  }
}

// ---------------------------------------------------------------- journal

void HarlServer::journal_append(const std::string& line) {
  std::lock_guard<std::mutex> lk(journal_mu_);
  if (journal_ == nullptr) return;
  std::fputs(line.c_str(), journal_);
  std::fputc('\n', journal_);
  // Flush line-by-line: a crash loses at most the line in flight, and the
  // reader tolerates a torn tail (same discipline as the record logs).
  std::fflush(journal_);
}

namespace {

// Journal-line members: every event kind's, in one table.
enum JournalField {
  kEv, kJob, kTenant, kBudget, kWeight, kNetwork, kBatch, kHw, kTrials, kSeed,
  kPolicy, kNumJournalFields
};
constexpr std::string_view kJournalNames[kNumJournalFields] = {
    "ev", "job", "tenant", "budget", "weight", "network", "batch", "hw",
    "trials", "seed", "policy"};

/// The first member of a job line whose kind is not the one its writer
/// uses, or nullptr.
const char* mistyped_job_member(const json::Members<kNumJournalFields>& m) {
  for (JournalField f : {kJob, kBatch, kTrials, kSeed}) {
    if (m[f].present && m[f].kind != json::Kind::kNumber) return kJournalNames[f].data();
  }
  for (JournalField f : {kTenant, kNetwork, kHw, kPolicy}) {
    if (m[f].present && m[f].kind != json::Kind::kString) return kJournalNames[f].data();
  }
  return nullptr;
}

}  // namespace

bool HarlServer::recover(std::string* error) {
  (void)error;
  std::string text;
  std::string rerr;
  if (!read_text_file(opts_.state_dir + "/jobs.jsonl", &text, &rerr)) {
    return true;  // no journal: a fresh daemon
  }
  std::lock_guard<std::mutex> lk(jobs_mu_);
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // torn tail: the crash window
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty()) continue;
    json::ParseError perr;
    json::Cursor c(line, &perr);
    json::Members<kNumJournalFields> m(kJournalNames);
    bool is_object = false;
    if (!m.read_document(c, &is_object) || !m[kEv].is(json::Kind::kString)) {
      continue;  // tolerant replay
    }
    const std::string ev = m[kEv].string();
    if (ev == "tenant") {
      if (m[kTenant].is(json::Kind::kString)) {
        const std::string name = m[kTenant].string();
        registry_.ensure(name, m[kBudget].int64(-1));
        if (m[kWeight].is(json::Kind::kNumber)) {
          registry_.set_weight(name, m[kWeight].number(0));
        }
      }
    } else if (ev == "job") {
      if (!m[kJob].present) continue;
      if (const char* bad = mistyped_job_member(m)) {
        HARL_LOG_WARN("server: journal line %zu: job member \"%s\" has the wrong kind; skipped",
                      line_no, bad);
        continue;
      }
      Job job;
      job.id = m[kJob].int64(0);
      m[kTenant].string(&job.tenant);
      m[kNetwork].string(&job.network);
      job.batch = m[kBatch].int64(1);
      m[kHw].string(&job.hw);
      job.trials = m[kTrials].int64(0);
      job.seed = m[kSeed].uint64(42);
      m[kPolicy].string(&job.policy);
      if (job.id <= 0 || job.trials <= 0 || !known_network_base(job.network)) {
        continue;
      }
      if (job.batch < 1 || job.batch > kMaxBatch) {
        HARL_LOG_WARN("server: journaled job %lld has batch %lld outside [1, %lld]; skipped",
                      static_cast<long long>(job.id), static_cast<long long>(job.batch),
                      static_cast<long long>(kMaxBatch));
        continue;
      }
      if (!job.policy.empty() && !PolicyRegistry::instance().contains(job.policy)) {
        HARL_LOG_WARN("server: journaled job %lld names unknown policy \"%s\"; skipped",
                      static_cast<long long>(job.id), job.policy.c_str());
        continue;
      }
      // The journal is the admission authority: charge the tenant exactly
      // what the original admission did, budgets-of-today notwithstanding.
      registry_.force_admit(job.tenant, job.trials);
      jobs_admitted_ += 1;
      next_job_id_ = std::max(next_job_id_, job.id + 1);
      jobs_[job.id] = std::move(job);
    } else if (ev == "done") {
      if (!m[kJob].is(json::Kind::kNumber)) continue;
      auto it = jobs_.find(m[kJob].int64(0));
      if (it == jobs_.end()) continue;
      it->second.done = true;
      it->second.state = FleetJobState::kDone;
      jobs_completed_ += 1;
      // Keep the charge (trials were spent); record the completion so the
      // selector's backward term starts neutral, not stale.
      registry_.on_job_complete(it->second.tenant, it->second.trials, -1, 0);
    }
  }
  // Jobs without a done marker were in flight or queued when the daemon
  // died: re-admit them in id order (their logs warm-start the rerun).
  for (auto& kv : jobs_) {
    if (!kv.second.done) {
      pending_.push_back(kv.first);
      jobs_resumed_ += 1;
    }
  }
  return true;
}

// ---------------------------------------------------------------- shards

HarlServer::Shard* HarlServer::shard_for_locked(const std::string& hw_name) {
  auto it = shards_.find(hw_name);
  if (it != shards_.end()) return it->second.get();

  std::string canon;
  std::optional<HardwareConfig> hw = hardware_preset(hw_name, &canon);
  if (!hw) return nullptr;

  KnowledgeCacheOptions copts;
  copts.golden_advice = opts_.golden_advice;
  auto shard = std::make_unique<Shard>(copts);
  shard->name = canon;
  shard->hw = *hw;
  std::string dir = shard_dir(canon);

  if (opts_.replica) {
    // A replica serves the primary's *published* snapshot, not the record
    // logs: its answers must match the published cache generation exactly,
    // and the log files may already be rounds ahead of the last publish.
    // Missing file = a shard the primary has not published yet; serve cold
    // (L3/miss) until the watcher sees the first publish.
    Shard* out = shard.get();
    shards_.emplace(canon, std::move(shard));
    reload_shard(out);
    return out;
  }

  make_dirs(dir);
  // Hydrate from the shard's snapshot plus the log bytes appended since
  // (a full replay when there is no valid snapshot).  The published cache
  // file is not trusted: it may predate the logs' last rounds, and it
  // remains for external consumers only.
  hydrate_shard(dir, &shard->cache);

  FleetTuner::Options fopts;
  fopts.max_concurrent = opts_.max_concurrent;
  fopts.log_dir = dir;
  fopts.knowledge_cache = &shard->cache;
  fopts.cache_save_period = opts_.cache_save_period;
  fopts.cache_save_path = dir + "/knowledge.cache.json";
  fopts.refresh_period = opts_.refresh_period;
  fopts.value_model = opts_.value_model;
  if (opts_.cross_refresh > 0) {
    // Cross-shard warm-up: one refresher per shard under the shared hub.
    // The hub — pushed into every workload's callback list at dispatch —
    // fans all shards' records into this refresher, and the fleet picks the
    // republished model up for later sessions via shared_refresher.  The
    // fleet must NOT also register the refresher on its sessions (that is
    // what refresh_period would do), or this shard's records would fold in
    // twice.
    if (refresh_hub_ == nullptr) {
      refresh_hub_ = std::make_unique<ShardRefreshHub>();
    }
    RefreshOptions ropts;
    ropts.period_rounds = opts_.cross_refresh;
    ropts.publish_path = dir + "/experience.model.json";
    fopts.shared_refresher = refresh_hub_->register_shard(
        canon, *hw, std::move(ropts), make_builtin_resolver());
  }
  std::string shard_name = canon;
  fopts.on_complete = [this, shard_name](int index,
                                         const FleetNetworkResult& result) {
    handle_fleet_complete(shard_name, index, result);
  };
  shard->fleet = std::make_unique<FleetTuner>(std::move(fopts));
  shard->fleet->start();

  Shard* out = shard.get();
  shards_.emplace(canon, std::move(shard));
  return out;
}

// ---------------------------------------------------------------- dispatch

void HarlServer::dispatch_locked() {
  while (active_jobs_ < opts_.max_concurrent && !pending_.empty()) {
    // Weighted fair dispatch: deficit round-robin over the distinct tenants
    // with queued work (a tenant's head FIFO job's trials are its cost), Eq. 3
    // gradient selection among the tenants whose deficit can afford their
    // head job.  Candidates are built in pending_ (admission) order, so the
    // whole pick is deterministic — a replayed journal re-dispatches in the
    // exact same order.
    std::vector<DispatchCandidate> candidates;
    for (std::int64_t id : pending_) {
      const Job& j = jobs_[id];
      auto dup = std::find_if(candidates.begin(), candidates.end(),
                              [&](const DispatchCandidate& c) {
                                return c.name == j.tenant;
                              });
      if (dup == candidates.end()) {
        candidates.push_back(DispatchCandidate{j.tenant, j.trials});
      }
    }
    int winner = registry_.pick_weighted(candidates);
    if (winner < 0) return;
    const std::string tenant = candidates[static_cast<std::size_t>(winner)].name;
    auto slot = std::find_if(pending_.begin(), pending_.end(),
                             [&](std::int64_t id) {
                               return jobs_[id].tenant == tenant;
                             });
    if (slot == pending_.end()) return;  // unreachable; defensive
    Job& job = jobs_[*slot];

    Shard* shard = shard_for_locked(job.hw);
    if (shard == nullptr) {
      // Journal recovered with an unknown preset (config drift): drop it.
      HARL_LOG_WARN("server: job %lld has unknown hw \"%s\"; dropped",
                    static_cast<long long>(job.id), job.hw.c_str());
      job.done = true;
      job.state = FleetJobState::kDone;
      pending_.erase(slot);
      continue;
    }

    FleetWorkload w;
    // Stable per-job workload name => stable log file (e.g.
    // "bert_b1-job3.jsonl"), the anchor of restart resume.
    w.name = job.network + "_b" + std::to_string(job.batch) + "-job" +
             std::to_string(job.id);
    w.network = make_network(job.network, job.batch);
    w.hardware = shard->hw;
    w.options = opts_.tuning;
    w.options.seed = job.seed;
    if (!job.policy.empty()) {
      // A named job keeps the base options' task-selection rule (sw-ucb
      // under harl_serve), not the named policy's own default.
      if (w.options.task_select_name.empty()) {
        w.options.task_select_name =
            PolicyRegistry::instance().task_select(w.options.policy_name);
      }
      w.options.policy_name = job.policy;
    }
    w.trials = job.trials;

    auto publisher = std::make_unique<ProgressPublisher>(this, job.id);
    w.callbacks.push_back(publisher.get());
    publishers_[job.id] = std::move(publisher);
    if (refresh_hub_ != nullptr) {
      // Every job's records feed every shard's refresher (cross-shard
      // warm-up); shard_for_locked above guarantees this shard's refresher
      // is registered before its first job runs.
      w.callbacks.push_back(refresh_hub_.get());
    }

    int fleet_index = shard->fleet->submit(std::move(w));
    shard->fleet_to_job[fleet_index] = job.id;
    job.fleet_index = fleet_index;
    job.state = FleetJobState::kRunning;
    active_jobs_ += 1;
    pending_.erase(slot);
    bool tenant_drained =
        std::none_of(pending_.begin(), pending_.end(), [&](std::int64_t id) {
          return jobs_[id].tenant == tenant;
        });
    if (tenant_drained) {
      // A tenant with no queued work must not bank credit while idle: reset
      // its deficit so a returning burst competes from zero, like a fresh
      // arrival (classic DRR empty-queue rule).
      registry_.clear_deficit(tenant);
    }
  }
}

void HarlServer::handle_fleet_complete(const std::string& shard_name,
                                       int fleet_index,
                                       const FleetNetworkResult& result) {
  Response ev;
  std::int64_t job_id = -1;
  {
    std::lock_guard<std::mutex> lk(jobs_mu_);
    auto sit = shards_.find(shard_name);
    if (sit == shards_.end()) return;
    auto jit = sit->second->fleet_to_job.find(fleet_index);
    if (jit == sit->second->fleet_to_job.end()) return;
    job_id = jit->second;
    Job& job = jobs_[job_id];
    job.result = result;
    active_jobs_ -= 1;
    // The fleet destroyed the job's session before this hook, so nothing
    // references its publisher any more (a re-dispatch creates a new one).
    publishers_.erase(job_id);
    if (result.completed) {
      job.done = true;
      job.state = FleetJobState::kDone;
      jobs_completed_ += 1;
      std::string line = "{\"v\":1,\"ev\":\"done\"";
      json::append_member(&line, "job", job_id);
      journal_append(line + '}');
      registry_.on_job_complete(job.tenant, job.trials, result.trials_used,
                                result.latency_gain_ms);
    } else {
      // Drained mid-budget: no done marker — the journal re-admits it on
      // the next start(), and its log resumes the search bit-identically.
      job.state = FleetJobState::kStopped;
    }
    ev.ok = true;
    ev.event = "done";
    ev.job = job_id;
    ev.state = fleet_job_state_name(job.state);
    ev.trials_used = result.trials_used;
    if (std::isfinite(result.latency_ms)) ev.latency_ms = result.latency_ms;
    dispatch_locked();
  }
  publish_event(job_id, ev, /*terminal=*/true);
}

void HarlServer::publish_event(std::int64_t job_id, const Response& event,
                               bool terminal) {
  std::vector<std::shared_ptr<Connection>> subs;
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    auto it = subscribers_.find(job_id);
    if (it != subscribers_.end()) {
      subs = it->second;
      if (terminal) subscribers_.erase(it);
    }
  }
  for (auto& conn : subs) {
    if (!conn->dead.load()) send_to(*conn, event);
  }
}

// ---------------------------------------------------------------- requests

Response HarlServer::handle_hello(const Request& req) {
  if (opts_.replica) {
    return error_response("read-only replica: hello is primary-only");
  }
  if (req.tenant.empty()) return error_response("hello needs a tenant name");
  registry_.ensure(req.tenant, req.budget);
  if (req.weight > 0) registry_.set_weight(req.tenant, req.weight);
  if (req.budget >= 0 || req.weight > 0) {
    std::string line = "{\"v\":1,\"ev\":\"tenant\"";
    json::append_member(&line, "tenant", req.tenant);
    if (req.budget >= 0) json::append_member(&line, "budget", req.budget);
    if (req.weight > 0) json::append_member(&line, "weight", req.weight);
    journal_append(line + '}');
  }
  Response resp;
  resp.ok = true;
  resp.tenants = registry_.num_tenants();
  return resp;
}

Response HarlServer::handle_query(const Request& req) {
  if (req.network.empty() || req.task.empty()) {
    return error_response("query needs network and task");
  }
  std::string canon;
  std::optional<HardwareConfig> hw = hardware_preset(req.hw, &canon);
  if (!hw) {
    return error_response("unknown hw preset \"" + req.hw +
                          "\" (" + HardwareConfig::kPresetNames + ")");
  }
  const Subgraph* graph = nullptr;
  {
    // The builtin resolver memoizes networks lazily; one lock keeps that
    // cache coherent across query threads.
    std::lock_guard<std::mutex> lk(resolver_mu_);
    graph = resolver_(req.network, req.task);
  }
  if (graph == nullptr) {
    return error_response("unknown task " + req.network + "/" + req.task);
  }
  Shard* shard;
  {
    std::lock_guard<std::mutex> lk(jobs_mu_);
    shard = shard_for_locked(canon);
  }
  if (shard == nullptr) return error_response("no shard for hw " + canon);

  auto t0 = std::chrono::steady_clock::now();
  ServeResult result = shard->cache.serve(req.network, *graph, *hw);
  auto t1 = std::chrono::steady_clock::now();

  Response resp;
  resp.ok = true;
  resp.tier = serve_tier_name(result.tier);
  resp.serve_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  // The cache generation the answer came from — a replica reply carries the
  // same value as the primary's last publish iff it has caught up.
  resp.cache_gen = shard->cache.generation();
  if (result.tier != ServeTier::kMiss) {
    resp.schedule_fp = result.schedule.fingerprint();
    resp.est_time_ms = result.est_time_ms;
    resp.score = result.score;
    resp.record = std::move(result.record_json);  // empty for L3
  }
  return resp;
}

Response HarlServer::handle_tune(const Request& req) {
  if (opts_.replica) {
    return error_response("read-only replica: tune is primary-only");
  }
  std::string tenant = req.tenant.empty() ? "default" : req.tenant;
  if (req.network.empty() || !known_network_base(req.network)) {
    return error_response("tune needs a builtin network base name "
                          "(bert, resnet50, mobilenet_v2)");
  }
  if (req.batch < 1 || req.batch > kMaxBatch) {
    return error_response("batch must be between 1 and " + std::to_string(kMaxBatch));
  }
  if (req.trials <= 0) return error_response("trials must be positive");
  if (req.trials > opts_.max_job_trials) {
    return error_response("trials exceed the per-job cap of " +
                          std::to_string(opts_.max_job_trials));
  }
  std::string canon;
  std::optional<HardwareConfig> hw = hardware_preset(req.hw, &canon);
  if (!hw) {
    return error_response("unknown hw preset \"" + req.hw +
                          "\" (" + HardwareConfig::kPresetNames + ")");
  }
  if (!req.policy.empty() && !PolicyRegistry::instance().contains(req.policy)) {
    return error_response("unknown policy \"" + req.policy + "\"");
  }

  std::string reason;
  if (!registry_.admit(tenant, req.trials, &reason)) {
    std::lock_guard<std::mutex> lk(jobs_mu_);
    jobs_rejected_ += 1;
    return error_response(reason);
  }

  Response resp;
  {
    std::lock_guard<std::mutex> lk(jobs_mu_);
    Job job;
    job.id = next_job_id_++;
    job.tenant = tenant;
    job.network = req.network;
    job.batch = req.batch;
    job.hw = canon;
    job.trials = req.trials;
    job.seed = req.seed;
    job.policy = req.policy;
    jobs_admitted_ += 1;

    // Journal before acknowledging: an admitted job must survive a crash
    // that lands between the reply and the first fleet round.
    std::string line = "{\"v\":1,\"ev\":\"job\"";
    json::append_member(&line, "job", job.id);
    json::append_member(&line, "tenant", job.tenant);
    json::append_member(&line, "network", job.network);
    json::append_member(&line, "batch", job.batch);
    json::append_member(&line, "hw", job.hw);
    json::append_member(&line, "trials", job.trials);
    json::append_member(&line, "seed", job.seed);
    if (!job.policy.empty()) json::append_member(&line, "policy", job.policy);
    journal_append(line + '}');

    resp.ok = true;
    resp.job = job.id;
    resp.state = fleet_job_state_name(FleetJobState::kQueued);
    pending_.push_back(job.id);
    jobs_[job.id] = std::move(job);
    dispatch_locked();
  }
  return resp;
}

Response HarlServer::handle_status(const Request& req) {
  if (opts_.replica) {
    return error_response("read-only replica: status is primary-only");
  }
  std::lock_guard<std::mutex> lk(jobs_mu_);
  auto it = jobs_.find(req.job);
  if (it == jobs_.end()) {
    return error_response("unknown job " + std::to_string(req.job));
  }
  const Job& job = it->second;
  Response resp;
  resp.ok = true;
  resp.job = job.id;
  FleetJobState state = job.state;
  if (!job.done && job.fleet_index >= 0) {
    auto sit = shards_.find(job.hw);
    if (sit != shards_.end() && sit->second->fleet != nullptr) {
      state = sit->second->fleet->workload_state(job.fleet_index);
    }
  }
  resp.state = fleet_job_state_name(state);
  if (job.done || state == FleetJobState::kStopped) {
    resp.trials_used = job.result.trials_used;
    if (std::isfinite(job.result.latency_ms)) {
      resp.latency_ms = job.result.latency_ms;
    }
  }
  return resp;
}

Response HarlServer::handle_stats() {
  Response resp;
  resp.ok = true;
  ServerStats s = stats();
  resp.queries = s.queries;
  resp.l1_hits = s.l1_hits;
  resp.l2_hits = s.l2_hits;
  resp.l3_hits = s.l3_hits;
  resp.misses = s.misses;
  resp.jobs_admitted = s.jobs_admitted;
  resp.jobs_rejected = s.jobs_rejected;
  resp.jobs_completed = s.jobs_completed;
  resp.jobs_resumed = s.jobs_resumed;
  resp.tenants = s.tenants;
  resp.role = opts_.replica ? "replica" : "primary";
  resp.refreshes = s.refreshes;
  resp.invalidations = s.invalidations;
  resp.reloads = s.reloads;
  return resp;
}

ServerStats HarlServer::stats() const {
  ServerStats out;
  std::lock_guard<std::mutex> lk(jobs_mu_);
  for (const auto& kv : shards_) {
    // A replica's live cache loses its counters on every hot reload
    // (cache_from_json resets them), so fold in the pre-reload base too.
    ServeStats cs = kv.second->cache.stats();
    {
      std::lock_guard<std::mutex> wlk(kv.second->watch_mu);
      accumulate(&cs, kv.second->reload_base);
    }
    out.queries += static_cast<std::int64_t>(cs.queries);
    out.l1_hits += static_cast<std::int64_t>(cs.l1_hits);
    out.l2_hits += static_cast<std::int64_t>(cs.l2_hits);
    out.l3_hits += static_cast<std::int64_t>(cs.l3_hits);
    out.misses += static_cast<std::int64_t>(cs.misses);
    out.invalidations += static_cast<std::int64_t>(cs.invalidations);
    out.refreshes += static_cast<std::int64_t>(cs.refreshes);
  }
  out.jobs_admitted = jobs_admitted_;
  out.jobs_rejected = jobs_rejected_;
  out.jobs_completed = jobs_completed_;
  out.jobs_resumed = jobs_resumed_;
  out.tenants = registry_.num_tenants();
  out.reloads = reloads_.load();
  return out;
}

Response HarlServer::handle_request(const Request& req,
                                    const std::shared_ptr<Connection>& conn,
                                    bool* already_replied) {
  *already_replied = false;
  switch (req.type) {
    case RequestType::kHello: return handle_hello(req);
    case RequestType::kQuery: return handle_query(req);
    case RequestType::kTune: return handle_tune(req);
    case RequestType::kStatus: return handle_status(req);
    case RequestType::kStats: return handle_stats();
    case RequestType::kShutdown: {
      Response resp;
      resp.ok = true;
      // Reply first (the caller sends it), then trip the flag: serve_forever
      // notices and runs the same graceful drain SIGTERM does.
      request_shutdown();
      return resp;
    }
    case RequestType::kSubscribe: {
      if (opts_.replica) {
        return error_response("read-only replica: subscribe is primary-only");
      }
      if (conn == nullptr) {
        return error_response("subscribe needs a streaming connection");
      }
      bool finished = false;
      Response done_ev;
      {
        std::lock_guard<std::mutex> lk(jobs_mu_);
        auto it = jobs_.find(req.job);
        if (it == jobs_.end()) {
          return error_response("unknown job " + std::to_string(req.job));
        }
        const Job& job = it->second;
        if (job.done || job.state == FleetJobState::kStopped) {
          finished = true;
          done_ev.ok = true;
          done_ev.event = "done";
          done_ev.job = job.id;
          done_ev.state = fleet_job_state_name(job.state);
          done_ev.trials_used = job.result.trials_used;
          if (std::isfinite(job.result.latency_ms)) {
            done_ev.latency_ms = job.result.latency_ms;
          }
        }
      }
      if (finished) return done_ev;  // a one-line stream: immediate done
      {
        std::lock_guard<std::mutex> lk(subs_mu_);
        subscribers_[req.job].push_back(conn);
      }
      // The stream itself is the reply; event lines follow until "done".
      *already_replied = true;
      return Response{};
    }
  }
  return error_response("unhandled request type");
}

Response HarlServer::handle_for_test(const Request& req) {
  if (req.type == RequestType::kSubscribe) {
    return error_response("subscribe needs a streaming connection");
  }
  bool already_replied = false;
  return handle_request(req, nullptr, &already_replied);
}

// ---------------------------------------------------------------- transport

bool HarlServer::send_to(Connection& conn, const Response& resp) {
  std::string wire = response_to_json(resp);
  wire += '\n';
  std::lock_guard<std::mutex> lk(conn.write_mu);
  std::size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n = ::send(conn.fd, wire.data() + sent, wire.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      conn.dead.store(true);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void HarlServer::accept_loop() {
  while (!shutdown_requested_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    int rc = ::poll(&pfd, 1, 50);
    reap_finished_connections();
    if (rc <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.push_back(conn);
    }
    conn->thread = std::thread([this, conn] { connection_loop(conn); });
  }
}

void HarlServer::reap_finished_connections() {
  // A finished reader thread still holds its stack until joined; join them
  // here so a long-lived daemon's footprint tracks live connections only.
  std::lock_guard<std::mutex> lk(conns_mu_);
  auto done = std::partition(conns_.begin(), conns_.end(),
                             [](const std::shared_ptr<Connection>& c) {
                               return !c->finished.load();
                             });
  for (auto it = done; it != conns_.end(); ++it) (*it)->thread.join();
  conns_.erase(done, conns_.end());
}

void HarlServer::connection_loop(std::shared_ptr<Connection> conn) {
  constexpr std::size_t kMaxLine = 1 << 20;  // flood guard
  while (!shutdown_requested_.load() && !conn->dead.load()) {
    std::size_t nl = conn->buffer.find('\n');
    if (nl == std::string::npos) {
      if (conn->buffer.size() > kMaxLine) break;  // no newline in 1 MiB: abuse
      pollfd pfd{};
      pfd.fd = conn->fd;
      pfd.events = POLLIN;
      int rc = ::poll(&pfd, 1, 100);
      if (rc < 0 && errno != EINTR) break;
      if (rc <= 0) continue;
      char chunk[4096];
      ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EOF or error
      conn->buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    std::string line = conn->buffer.substr(0, nl);
    conn->buffer.erase(0, nl + 1);
    if (line.empty()) continue;

    Request req;
    std::string perr;
    if (!request_from_json(line, &req, &perr)) {
      send_to(*conn, error_response("bad request: " + perr));
      continue;
    }
    bool already_replied = false;
    Response resp = handle_request(req, conn, &already_replied);
    if (!already_replied) {
      if (!send_to(*conn, resp)) break;
    }
  }
  conn->dead.store(true);
  // Unsubscribe everywhere before the socket goes away.
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    for (auto& kv : subscribers_) {
      auto& v = kv.second;
      v.erase(std::remove(v.begin(), v.end(), conn), v.end());
    }
  }
  {
    // Under write_mu: a concurrent publish_event must never send to a
    // closed (and possibly reused) descriptor number.
    std::lock_guard<std::mutex> lk(conn->write_mu);
    ::close(conn->fd);
    conn->fd = -1;
  }
  conn->finished.store(true);
}

}  // namespace harl
