#pragma once

/// \file server.hpp
/// HarlServer: the long-lived tuning-as-a-service daemon — a local TCP
/// line-JSON endpoint (protocol.hpp) serving schedule queries from
/// per-hardware-class KnowledgeCache shards in µs/ms and admitting cold
/// misses as tuning jobs on shared FleetTuner pools, with per-tenant trial
/// budgets (tenant.hpp), subscription streaming of round progress, and a
/// durable job journal so SIGTERM checkpoints in-flight sessions and a
/// restarted daemon resumes them bit-identically (the fleet's salvage +
/// resume_session path).  Invariant: every admitted job is journaled before
/// it is acknowledged, and a job's tuning output is a pure function of its
/// request (network, batch, hw, trials, seed, policy) regardless of how many
/// restarts interrupt it.  Collaborators: FleetTuner, KnowledgeCache,
/// TenantRegistry, protocol, harl_serve/harl_query.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet.hpp"
#include "exp/shard_refresh.hpp"
#include "serve/knowledge_cache.hpp"
#include "server/protocol.hpp"
#include "server/tenant.hpp"

namespace harl {

/// Daemon configuration (the harl_serve flag surface).
struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port.  The chosen port is
  /// written to `<state_dir>/port` either way, so clients and scripts can
  /// discover it; a clean shutdown removes the file again.
  int port = 0;
  /// Durable root: per-hardware shard directories with record logs and
  /// knowledge caches, plus the `jobs.jsonl` journal and the `port` file.
  std::string state_dir;
  /// Tuning jobs run at once, across all shards.
  int max_concurrent = 2;
  /// Trial budget a new tenant starts with (hello can raise it).
  std::int64_t default_budget = 100000;
  /// Per-job trial cap (an admission guard against one request draining a
  /// whole tenant budget).
  std::int64_t max_job_trials = 10000;
  /// Base SearchOptions for every job; the request overrides seed and
  /// policy.  Restarted daemons must use the same base options — they are
  /// part of every job's run identity (resume replays nothing otherwise).
  SearchOptions tuning;
  /// Serve golden advice (L3) on cold misses instead of reporting a miss.
  bool golden_advice = true;
  /// Eq. 3 alpha of the cross-tenant selector (tenant.hpp).
  double gradient_alpha = 0.2;
  /// Knowledge-cache republish cadence (FleetTuner::Options).
  int cache_save_period = 8;
  /// In-run experience refresh cadence; 0 (default) keeps it off so a
  /// restarted job's run identity (its experience fingerprint) is stable —
  /// the price of bit-identical resume.  Enable only when resume fidelity
  /// matters less than model freshness.
  int refresh_period = 0;
  /// Partial-schedule value model (`harl_harvest value` output) shared by
  /// every shard fleet: admitted jobs run value-guided per
  /// `tuning.value_guide`'s beam/cluster knobs and stamp the model's
  /// fingerprint as `vm`.  Like `tuning`, part of every job's run identity —
  /// a restarted daemon must pass the same model for resume to replay.
  std::string value_model;
  /// Read-only replica mode (`harl_serve --replica`): share another daemon's
  /// state dir, serve queries/stats only (tune/hello/status/subscribe are
  /// rejected), never touch the journal or record logs, and hot-reload each
  /// shard's published `knowledge.cache.json` / `experience.model.json`
  /// whenever the primary republishes them (atomic: the CRC footer + rename
  /// publish means a reload sees complete old or new bytes, never torn).
  bool replica = false;
  /// Replica file-watch poll cadence in milliseconds.
  int watch_interval_ms = 100;
  /// Cross-shard experience warm-up: when > 0, a `ShardRefreshHub` observes
  /// every job's records and refits one `ExperienceRefresher` per hardware
  /// shard every `cross_refresh` rounds, so records tuned on one shard warm
  /// structurally similar tasks on its siblings (each shard's fleet picks
  /// the republished model up for its *next* session via
  /// `FleetTuner::Options::shared_refresher`).  Off (0) by default for the
  /// same reason as `refresh_period`: a refreshed model changes the `xm` of
  /// later sessions, which restart-resume bit-identity gates cannot allow.
  int cross_refresh = 0;
  /// File the bound port is written to.  Empty = `<state_dir>/port` for a
  /// primary and *nothing* for a replica (replicas must not clobber the
  /// primary's discovery file in the shared state dir).
  std::string port_file;
};

/// Server-wide monotonic counters (the `stats` reply).
struct ServerStats {
  std::int64_t queries = 0;
  std::int64_t l1_hits = 0;
  std::int64_t l2_hits = 0;
  std::int64_t l3_hits = 0;
  std::int64_t misses = 0;
  std::int64_t jobs_admitted = 0;
  std::int64_t jobs_rejected = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t jobs_resumed = 0;  ///< jobs re-admitted by restart recovery
  std::int64_t tenants = 0;
  std::int64_t invalidations = 0;  ///< cached bests retired by live tuning
  std::int64_t refreshes = 0;      ///< cache generations published/loaded
  std::int64_t reloads = 0;        ///< replica hot-reloads of published files
};

/// The daemon.  Lifecycle: construct → `start()` (recover + bind + accept
/// thread) → `serve_forever()` (or poll `shutdown_requested()` yourself) →
/// `shutdown()`.  `request_shutdown()` is async-signal-safe (one atomic
/// store), so a SIGTERM/SIGINT handler can trigger a graceful drain.
class HarlServer {
 public:
  explicit HarlServer(ServerOptions opts);
  ~HarlServer();

  HarlServer(const HarlServer&) = delete;
  HarlServer& operator=(const HarlServer&) = delete;

  /// Recover the journal, bind 127.0.0.1:<port>, write the port file, spawn
  /// the accept thread.  Returns false with a reason on failure.
  bool start(std::string* error);

  /// The bound port (valid after start()).
  int port() const { return port_; }

  /// Async-signal-safe shutdown trigger.
  void request_shutdown() { shutdown_requested_.store(true); }
  bool shutdown_requested() const { return shutdown_requested_.load(); }

  /// Block until `request_shutdown()` (signal or client), then `shutdown()`.
  void serve_forever();

  /// Graceful drain, idempotent: stop accepting (and remove the port file
  /// start() wrote, while it still names this daemon), checkpoint running
  /// jobs at their next round boundary (their journals and record logs
  /// survive; done markers are only written for *completed* jobs, so a
  /// restart re-admits the rest), stop the fleets, snapshot each shard's
  /// cache from disk for the next start (`snapshot_shard`), close every
  /// connection.
  void shutdown();

  ServerStats stats() const;

  /// Direct (socketless) request dispatch — the protocol logic without the
  /// transport, used by tests.  Streaming types (subscribe) are rejected
  /// here; everything else behaves exactly as over the wire.
  Response handle_for_test(const Request& req);

 private:
  struct Job {
    std::int64_t id = 0;
    std::string tenant;
    std::string network;   ///< base name ("bert"), not the batch-suffixed one
    std::int64_t batch = 1;
    std::string hw;        ///< preset name, canonical ("xeon"/"rtx3090"/"test")
    std::int64_t trials = 0;
    std::uint64_t seed = 42;
    std::string policy;    ///< "" = the base options' policy
    FleetJobState state = FleetJobState::kQueued;
    int fleet_index = -1;  ///< index within its shard's fleet once dispatched
    bool done = false;     ///< terminal (budget spent or saturated)
    FleetNetworkResult result;
  };

  /// One hardware class: its own knowledge cache, record-log directory, and
  /// fleet pool, so record streams from different machines never mix.  A
  /// replica's shards have no fleet; their caches mirror the primary's
  /// published files instead of the record logs.
  struct Shard {
    std::string name;
    HardwareConfig hw;
    KnowledgeCache cache;
    std::unique_ptr<FleetTuner> fleet;
    std::map<int, std::int64_t> fleet_to_job;  ///< fleet index -> job id
    /// Replica watch state: last seen (mtime, size) of the published cache
    /// and model files, and the serve counters accumulated across reloads
    /// (`cache_from_json` resets the live cache's stats on each reload).
    /// The stamps are touched only by the single reload path; `reload_base`
    /// is also read by `stats()`, so it gets its own lock (`jobs_mu_` won't
    /// do — the first reload happens under it, later ones without it).
    std::int64_t cache_stamp = -1;
    std::int64_t model_stamp = -1;
    std::mutex watch_mu;
    ServeStats reload_base;

    explicit Shard(KnowledgeCacheOptions copts) : cache(copts) {}
  };

  class ProgressPublisher;
  struct Connection;

  Shard* shard_for_locked(const std::string& hw_name);
  std::string shard_dir(const std::string& name) const;
  void journal_append(const std::string& line);
  bool recover(std::string* error);
  void dispatch_locked();
  void watch_loop();
  void reload_shard(Shard* shard);
  void handle_fleet_complete(const std::string& shard_name, int fleet_index,
                             const FleetNetworkResult& result);
  void publish_event(std::int64_t job_id, const Response& event,
                     bool terminal);

  void accept_loop();
  void reap_finished_connections();
  void connection_loop(std::shared_ptr<Connection> conn);
  bool send_to(Connection& conn, const Response& resp);
  Response handle_request(const Request& req,
                          const std::shared_ptr<Connection>& conn,
                          bool* already_replied);

  Response handle_hello(const Request& req);
  Response handle_query(const Request& req);
  Response handle_tune(const Request& req);
  Response handle_status(const Request& req);
  Response handle_stats();

  ServerOptions opts_;
  int port_ = 0;
  std::string port_file_;  ///< port file start() wrote; shutdown() removes it
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::thread watch_thread_;  ///< replica mode: published-file poller
  std::atomic<bool> shutdown_requested_{false};
  bool shutdown_done_ = false;
  std::mutex shutdown_mu_;

  TenantRegistry registry_;
  std::mutex resolver_mu_;  ///< make_builtin_resolver caches lazily; serialize it
  TaskResolver resolver_;

  mutable std::mutex jobs_mu_;
  std::map<std::string, std::unique_ptr<Shard>> shards_;
  std::map<std::int64_t, Job> jobs_;
  std::vector<std::int64_t> pending_;  ///< admitted, not yet dispatched
  /// Running jobs' event publishers; erased when the job completes.
  std::map<std::int64_t, std::unique_ptr<ProgressPublisher>> publishers_;
  std::int64_t next_job_id_ = 1;
  int active_jobs_ = 0;
  std::int64_t jobs_admitted_ = 0;
  std::int64_t jobs_rejected_ = 0;
  std::int64_t jobs_completed_ = 0;
  std::int64_t jobs_resumed_ = 0;
  /// Replica: published-file hot-reloads.  Atomic because the watcher bumps
  /// it and shard_for_locked triggers a first reload under jobs_mu_.
  std::atomic<std::int64_t> reloads_{0};
  /// Cross-shard warm-up hub (opts_.cross_refresh > 0): one refresher per
  /// shard, fed by every job's records via the workload callback list.
  std::unique_ptr<ShardRefreshHub> refresh_hub_;

  std::mutex journal_mu_;
  std::FILE* journal_ = nullptr;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::mutex subs_mu_;
  std::map<std::int64_t, std::vector<std::shared_ptr<Connection>>> subscribers_;
};

}  // namespace harl
