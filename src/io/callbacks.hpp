#pragma once

/// \file callbacks.hpp
/// The tuning observer interface (TuningCallback) and the synchronous
/// fan-out CallbackBus.  Invariant: a fixed per-round event order
/// (on_records -> on_failure -> on_new_best -> on_round; on_task_complete
/// at budget end), and callbacks observe — they never influence the search.
/// Collaborators: TaskScheduler (producer), RecordLogger, AsyncCallbackBus.

#include <cstdint>
#include <vector>

#include "search/search_common.hpp"

namespace harl {

class TaskScheduler;

/// What one completed scheduler round did (the callback-facing mirror of
/// `TaskScheduler::RoundResult` plus the round's position in the log).
struct RoundEvent {
  std::size_t round_index = 0;       ///< index into TaskScheduler::round_log()
  int task = -1;                     ///< subgraph tuned this round
  std::int64_t trials_consumed = 0;  ///< simulator trials the round spent
  std::int64_t trials_after = 0;     ///< cumulative trials after the round
  std::size_t records = 0;           ///< measurements committed (incl. cached)
  double net_latency_ms = 0;         ///< objective after the round (+inf in warmup)
};

/// One failed measurement committed to a task (status != kOk): the
/// observer-facing face of the fault pipeline.  Fired after `on_records`
/// (the failed record is also *in* that batch, with `time_ms` unusable) so
/// monitors can alert without re-scanning every record.
struct FailureEvent {
  int task = -1;                     ///< subgraph the measurement belonged to
  std::int64_t trial_index = 0;      ///< trial accounting position
  std::uint64_t schedule_fp = 0;     ///< Schedule::fingerprint() of the victim
  MeasureStatus status = MeasureStatus::kOk;  ///< why it failed
  bool quarantined = false;          ///< schedule is now on the quarantine list
};

/// Observer interface for a tuning run — the extension point through which
/// persistence (`RecordLogger`), progress UIs, early-stop monitors, or
/// dataset harvesters watch a `TaskScheduler` without polling it.
///
/// Event order within one round: `on_records` (the round's committed
/// measurements), then `on_failure` for each failed record in commit order,
/// then `on_new_best` (only when the task's best improved), then
/// `on_round`.  `on_task_complete` fires once per task when a
/// `TaskScheduler::run` / `TuningSession::run` budget finishes (including
/// saturation early-exit), after the final round's events.
///
/// Callbacks registered on a scheduler run synchronously on the tuning
/// thread.  A caller that wants them off it builds an `AsyncCallbackBus`
/// (io/async_bus.hpp), registers the bus on the scheduler and the callbacks
/// on the bus; they then run on its dispatcher thread, seeing the same
/// event sequence.  `FleetTuner` does this for every workload, so a fleet
/// callback shared by several workloads must be thread-safe, one registered
/// per workload need not be.
class TuningCallback {
 public:
  virtual ~TuningCallback() = default;

  /// The records committed to `task` this round, in commit order.
  virtual void on_records(const TaskScheduler& scheduler, int task,
                          const std::vector<MeasuredRecord>& records) {
    (void)scheduler, (void)task, (void)records;
  }

  /// A measurement committed to a task ended in a failed state.
  virtual void on_failure(const TaskScheduler& scheduler,
                          const FailureEvent& failure) {
    (void)scheduler, (void)failure;
  }

  /// `task`'s best time improved; `best` is the improving record.
  virtual void on_new_best(const TaskScheduler& scheduler, int task,
                           const MeasuredRecord& best) {
    (void)scheduler, (void)task, (void)best;
  }

  /// A scheduler round finished and was appended to `round_log()`.
  virtual void on_round(const TaskScheduler& scheduler, const RoundEvent& round) {
    (void)scheduler, (void)round;
  }

  /// A `run()` budget finished; fired once per task index.
  virtual void on_task_complete(const TaskScheduler& scheduler, int task) {
    (void)scheduler, (void)task;
  }

  /// Deliver any buffered events before returning.  A no-op for ordinary
  /// (synchronous) callbacks; `AsyncCallbackBus` overrides it to drain its
  /// queue.  The scheduler flushes every registered callback when a `run()`
  /// budget completes, so by the time `run()` returns nothing is in flight.
  virtual void flush() {}
};

/// An ordered set of non-owned callbacks with fan-out dispatch.  The bus is
/// the only coupling between the scheduler and its observers: the scheduler
/// publishes, subscribers react, neither knows the other's type.
class CallbackBus {
 public:
  /// Registers `cb` (ignored when nullptr or already registered). Not owned;
  /// the caller keeps `cb` alive for the scheduler's lifetime.
  void add(TuningCallback* cb);
  void remove(TuningCallback* cb);
  void clear() { callbacks_.clear(); }
  std::size_t size() const { return callbacks_.size(); }
  bool empty() const { return callbacks_.empty(); }

  void emit_records(const TaskScheduler& scheduler, int task,
                    const std::vector<MeasuredRecord>& records) const;
  void emit_failure(const TaskScheduler& scheduler,
                    const FailureEvent& failure) const;
  void emit_new_best(const TaskScheduler& scheduler, int task,
                     const MeasuredRecord& best) const;
  void emit_round(const TaskScheduler& scheduler, const RoundEvent& round) const;
  void emit_task_complete(const TaskScheduler& scheduler, int task) const;
  /// `flush()` every registered callback (drains async dispatchers).
  void flush_all() const;

 private:
  std::vector<TuningCallback*> callbacks_;
};

}  // namespace harl
