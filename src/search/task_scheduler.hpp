#pragma once

/// \file task_scheduler.hpp
/// SearchOptions + TaskScheduler: the end-to-end tuner — one TaskState and
/// policy per subgraph, budget allocation via the Eq. 3 gradient (bandit or
/// greedy), round pipeline, callback publication.  Invariant: the schedule
/// stream is a pure function of the run identity (options + seed +
/// experience fingerprint).  Collaborators: policies, selectors, Measurer,
/// io/callbacks.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "bandit/sw_ucb.hpp"
#include "io/callbacks.hpp"
#include "ir/subgraph.hpp"
#include "search/ansor_search.hpp"
#include "search/autotvm_search.hpp"
#include "search/flextensor_search.hpp"
#include "search/harl_search.hpp"
#include "search/random_search.hpp"

namespace harl {

class ThreadPool;

class TaskSelector;

/// Everything configurable about a tuning run.  Defaults reproduce the
/// paper's Table 5 settings scaled by the caller (benchmarks pass smaller
/// track counts via `harl.stop` for wall-clock reasons; `--paper` restores
/// the published values).
struct SearchOptions {
  /// Registry name of the per-subgraph policy, resolved case-insensitively
  /// through `PolicyRegistry::create`, so policies registered outside the
  /// library run through the same TuningSession path as the built-ins.
  /// Also the provenance string stamped into tuning records.
  std::string policy_name = "HARL";
  /// Registry name of the task-selection rule, resolved through
  /// `TaskSelectRegistry::create`.  Empty = the rule `policy_name` was
  /// registered with (`PolicyRegistry::task_select`).
  std::string task_select_name;

  HarlConfig harl;
  AnsorConfig ansor;
  FlextensorConfig flextensor;
  AutoTvmConfig autotvm;

  int measures_per_round = 10;  ///< K of the top-K selection phase

  /// Per-task learned cost model: GBDT shape/split-mode knobs plus the
  /// refit policy (`refit_period`/`warm_trees` enable warm-start boosting
  /// between full refits) and the optional pretrained experience prior.
  CostModelConfig cost_model;

  /// Path to a pretrained experience model file (`harl_harvest harvest`,
  /// cost/gbdt_io.hpp).  Loaded once per scheduler into
  /// `cost_model.pretrained` (which, when already set, takes precedence) and
  /// shared read-only by every task, so each new session starts from the
  /// fleet's accumulated measurements instead of a cold model.  An
  /// unreadable or wrong-width file logs a warning and falls back to cold.
  std::string experience_model;

  /// Measurement-economy knobs (see search/value_guide.hpp): the
  /// partial-schedule value head (`model_path` / `model`, trained by
  /// `harl_harvest value`), the beam width policies prune their expansions
  /// to, and the adaptive-sampling trial filter's cluster count.  The value
  /// model is loaded once per scheduler (mirroring `experience_model`) and
  /// its fingerprint joins the run identity as `vm`, so guided and unguided
  /// streams never cross-replay.
  ValueGuideOptions value_guide;

  // Eq. 3 gradient parameters (Table 5).
  double gradient_alpha = 0.2;
  double gradient_beta = 2.0;
  SwUcbConfig task_ucb;  ///< subgraph-level MAB parameters

  std::uint64_t seed = 42;

  // ---- parallel engine knobs ------------------------------------------
  /// Worker pool shared by batched measurement and cost-model candidate
  /// scoring.  nullptr = the process-wide `global_pool()`; a `ThreadPool(1)`
  /// forces the serial path (useful for determinism baselines).  Not owned.
  ThreadPool* pool = nullptr;
  /// Capacity of the measurer's hash-keyed LRU cache of measured times
  /// (duplicate candidates replay instead of re-simulating and consume no
  /// trials).  0 disables caching.
  std::size_t measure_cache_capacity = 4096;

};

/// Instantiate a policy by registry name (case-insensitive).  Throws
/// std::invalid_argument listing the registered names when `name` is
/// unknown (a bad name is user input, like make_network's).
std::unique_ptr<SearchPolicy> make_policy(const std::string& name, TaskState* task,
                                          const SearchOptions& opts);

/// End-to-end tuner: owns one TaskState + SearchPolicy per subgraph of a
/// network and distributes the measurement-trial budget across them
/// (Section 2.2's f(S) = sum_n w_n g_n objective).
///
/// Subgraph selection is the first level of HARL's hierarchy: a
/// non-stationary SW-UCB bandit whose reward is the negated Ansor gradient
/// (Eq. 3/4).  The Ansor baseline uses the greedy argmin-gradient rule the
/// paper's Observation 1 criticizes; round-robin serves simple baselines.
class TaskScheduler {
 public:
  TaskScheduler(const Network* net, const HardwareConfig* hw, SearchOptions opts);
  ~TaskScheduler();  // out of line: TaskSelector is incomplete here

  /// Outcome of one pipeline round (select -> tune -> reward -> log).
  struct RoundResult {
    int task = -1;
    std::int64_t trials_consumed = 0;  ///< simulator trials this round spent
    std::size_t records = 0;           ///< measurements committed (incl. cached)
    double net_latency_ms = 0;         ///< objective after the round
  };

  /// Run one round of the tuning pipeline: pick a task (warmup first, then
  /// the configured selection rule), run its policy's `tune_round` — whose
  /// candidate scoring and top-K measurement dispatch onto the configured
  /// pool via the batched paths — feed the bandit its reward, and append to
  /// `round_log()`.
  RoundResult run_round(Measurer& measurer);

  /// Tune until `total_trials` measurements are consumed (a warmup pass
  /// first tunes every task once).  Stops early if the search saturates:
  /// with the measure cache on, a policy whose whole top-K replays from
  /// cache consumes no trials, and repeated zero-trial rounds mean no task
  /// can make progress.
  void run(Measurer& measurer, std::int64_t total_trials);

  /// Why the most recent `run()` returned.  `kStopped` means a
  /// `request_stop()` interrupted the budget — the run is checkpointed at a
  /// round boundary, not complete.
  enum class RunExit { kNone, kBudget, kSaturated, kStopped };
  RunExit last_run_exit() const { return last_run_exit_; }

  /// Ask a running `run()` to return at the next round boundary (thread-safe;
  /// callable from any thread, e.g. a daemon's SIGTERM drain).  The round in
  /// flight completes — and its records reach every callback, so a per-round
  /// logger's file ends on a whole round — before the loop exits without
  /// emitting `on_task_complete`.  Because the record log is flushed per
  /// round, a stopped session is exactly the durable checkpoint
  /// `resume_session` resumes bit-identically from.  Sticky until
  /// `clear_stop_request()`.
  void request_stop() { stop_requested_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_relaxed);
  }
  void clear_stop_request() {
    stop_requested_.store(false, std::memory_order_relaxed);
  }

  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  TaskState& task(int i) { return *tasks_.at(static_cast<std::size_t>(i)); }
  const TaskState& task(int i) const { return *tasks_.at(static_cast<std::size_t>(i)); }
  SearchPolicy& policy(int i) { return *policies_.at(static_cast<std::size_t>(i)); }
  const Network& network() const { return *net_; }
  const HardwareConfig& hardware() const { return *hw_; }
  const SearchOptions& options() const { return opts_; }

  /// Subscribes `cb` (not owned) to this scheduler's tuning events; see
  /// `TuningCallback` for the event contract.  Callbacks run on the tuning
  /// thread; to run consumers off it, register an `AsyncCallbackBus`
  /// (io/async_bus.hpp) here and the consumers on the bus.
  void add_callback(TuningCallback* cb) { callbacks_.add(cb); }
  void remove_callback(TuningCallback* cb) { callbacks_.remove(cb); }
  const CallbackBus& callbacks() const { return callbacks_; }
  /// Drain every registered callback (async dispatchers included).  `run()`
  /// does this on exit; callers driving `run_round` directly call it before
  /// reading consumer side effects (log files, refreshed models).
  void flush_callbacks() { callbacks_.flush_all(); }

  /// Estimated network latency sum_n w_n g_n with current per-task bests;
  /// +inf until every task has at least one measurement.
  double estimated_latency_ms() const;

  /// Estimated-latency curve, one point per completed round.
  struct RoundLog {
    int task = -1;
    std::int64_t trials_after = 0;     ///< cumulative trials after the round
    double net_latency_ms = 0;         ///< +inf during warmup
  };
  const std::vector<RoundLog>& round_log() const { return round_log_; }

  /// Trials consumed by each task so far.
  std::vector<std::int64_t> task_allocations() const;

  /// The Eq. 3 gradient estimate for task `i` (negative = predicted
  /// improvement of the weighted objective).  Exposed for tests and reports.
  double task_gradient(int i) const;

  /// The task-selection rule driving this scheduler (resolved from
  /// `SearchOptions::task_select_name`, else the policy's registered rule,
  /// at construction).
  const TaskSelector& selector() const { return *selector_; }

  /// Fingerprint of the pretrained experience model this run starts from
  /// (hash of its serialized form; 0 = cold start).  Stamped into tuning
  /// records as part of the run identity: a warm run's schedule stream
  /// differs from a cold run's with the same seed, so resume must never
  /// replay across that boundary.
  std::uint64_t experience_fingerprint() const { return experience_fp_; }

  /// Fingerprint of the partial-schedule value model guiding this run (0 =
  /// unguided).  Stamped into tuning records as `vm`, the same contract as
  /// `experience_fingerprint`'s `xm`: a guided run's schedule stream differs
  /// from an unguided run's with the same seed.
  std::uint64_t value_fingerprint() const { return value_fp_; }

  /// The scheduler-owned measurement-economy guide (nullptr when disabled).
  const ValueGuide* value_guide() const { return value_guide_.get(); }

 private:
  int select_task();

  const Network* net_;
  const HardwareConfig* hw_;
  SearchOptions opts_;
  std::vector<std::unique_ptr<TaskState>> tasks_;
  std::vector<std::unique_ptr<SearchPolicy>> policies_;
  std::unique_ptr<TaskSelector> selector_;
  std::uint64_t experience_fp_ = 0;
  std::uint64_t value_fp_ = 0;
  std::unique_ptr<ValueGuide> value_guide_;
  std::atomic<bool> stop_requested_{false};
  RunExit last_run_exit_ = RunExit::kNone;
  std::vector<RoundLog> round_log_;
  std::int64_t run_start_trials_ = -1;  ///< trials_used() at the start of run()
  CallbackBus callbacks_;
};

}  // namespace harl
