#pragma once

/// \file async_bus.hpp
/// Bounded-queue asynchronous callback dispatcher: wraps any set of
/// `TuningCallback`s so slow consumers (loggers, uploaders, experience
/// refreshers) run on a worker thread instead of stalling the tuning hot
/// loop.  Invariant: consumers see the exact event sequence a synchronous
/// bus would deliver (FIFO, registration order); nothing is ever dropped.
/// Collaborators: CallbackBus / TaskScheduler (producer side), FleetTuner
/// and tune_network (owners), RecordLogger / ExperienceRefresher (typical
/// consumers).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "io/callbacks.hpp"

namespace harl {

/// Decouples event production (the tuning thread) from consumption (one
/// worker thread owned by the bus).  The bus is itself a `TuningCallback`:
/// a caller that wants its consumers off the tuning thread builds one,
/// registers it on the session like any other callback, and registers the
/// consumers on the bus, which fans each event out to them.  `FleetTuner`
/// builds one per running workload; `tune_network --async-callbacks` builds
/// one for its run.
///
/// Delivery contract:
///   - events are delivered in the exact order they were produced (one
///     FIFO queue, one worker), and to consumers in registration order —
///     deterministic per-callback FIFO, same as the synchronous bus;
///   - event payloads (records, round stats) are copied at enqueue time, so
///     consumers never race the hot loop on them.  The `TaskScheduler&`
///     argument is forwarded by reference: async consumers must only read
///     run-constant scheduler state (network/task names, hardware, options,
///     fingerprints) — live tuning state (bests, curves) belongs to the
///     tuning thread while a run is in flight;
///   - a consumer that throws is isolated: the exception is caught and
///     counted (`consumer_errors()`), other consumers and later events are
///     unaffected, and the tuning thread never sees it;
///   - a full queue blocks the producer until the worker frees a slot, so
///     every event is delivered exactly once; a consumer slower than the
///     hot loop throttles tuning to its pace once `capacity` events are
///     queued.  The record logger, the daemon's progress stream and the
///     experience refresher all need every event, so there is no lossy mode;
///   - `flush()` blocks until every queued event is delivered; the
///     scheduler flushes its callbacks (this bus among them) at `run()`
///     exit and the destructor drains, so a clean shutdown loses nothing.
///     After a crash-style `_Exit` the delivered prefix is intact
///     (consumers like `RecordLogger` flush per event batch), and the
///     undelivered suffix is exactly what deterministic resume re-executes.
///
/// Lifetime: consumers and the observed scheduler must outlive the last
/// `flush()`/destruction, so declare the bus after the session and the
/// consumers it serves (it is then destroyed, and drained, first).
/// Producer-side calls (the `on_*` overrides) are serialized by the tuning
/// thread as usual; `add`/`remove`/`flush` are thread-safe.  Never call `flush()` from inside a consumer (self-deadlock).
class AsyncCallbackBus : public TuningCallback {
 public:
  /// `capacity`: the most events queued before a producer blocks (min 1).
  explicit AsyncCallbackBus(std::size_t capacity = 1024);
  ~AsyncCallbackBus() override;

  AsyncCallbackBus(const AsyncCallbackBus&) = delete;
  AsyncCallbackBus& operator=(const AsyncCallbackBus&) = delete;

  /// Registers `cb` (not owned; ignored when nullptr or already present).
  /// Register consumers before the run starts for a complete stream: events
  /// produced while no consumer is registered are not queued at all, and
  /// events already queued at registration time are delivered to `cb` too.
  void add(TuningCallback* cb);
  /// Unregisters `cb`.  Queued events are no longer delivered to it; call
  /// `flush()` first when the tail matters.
  void remove(TuningCallback* cb);

  // Producer side: enqueue a copy of the event (see class comment).
  void on_records(const TaskScheduler& scheduler, int task,
                  const std::vector<MeasuredRecord>& records) override;
  void on_failure(const TaskScheduler& scheduler,
                  const FailureEvent& failure) override;
  void on_new_best(const TaskScheduler& scheduler, int task,
                   const MeasuredRecord& best) override;
  void on_round(const TaskScheduler& scheduler, const RoundEvent& round) override;
  void on_task_complete(const TaskScheduler& scheduler, int task) override;

  /// Blocks until the queue is empty and no event is mid-delivery, without
  /// touching the consumers — safe while a consumer is being torn down,
  /// which is why destructors use it instead of `flush()`.
  void drain();

  /// `drain()`, then forward `flush()` to every consumer (so a buffering
  /// consumer drains at run exit in async mode exactly as it would in
  /// sync mode).  Consumers must still be alive.
  void flush() override;

  // ---- accounting (monotone; readable from any thread) -----------------
  std::uint64_t enqueued() const;   ///< events accepted into the queue
  std::uint64_t delivered() const;  ///< events fanned out to consumers
  /// Exceptions thrown by consumers (one per (event, consumer) pair).
  std::uint64_t consumer_errors() const;
  /// Queued events not yet delivered.
  std::size_t backlog() const;

 private:
  /// One queued event: the kind discriminates which payload fields are live.
  struct Event {
    enum class Kind { kRecords, kFailure, kNewBest, kRound, kTaskComplete };
    Kind kind = Kind::kRound;
    const TaskScheduler* scheduler = nullptr;
    int task = -1;
    std::vector<MeasuredRecord> records;  ///< kRecords
    MeasuredRecord best;                  ///< kNewBest
    RoundEvent round;                     ///< kRound
    FailureEvent failure;                 ///< kFailure
  };

  bool has_consumers() const;
  void push(Event event);
  void worker_loop();
  void deliver(const Event& event);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  ///< signals the worker: work or stop
  std::condition_variable space_cv_;  ///< signals producers/flushers: drained
  std::deque<Event> queue_;
  std::vector<TuningCallback*> consumers_;
  bool stop_ = false;
  bool delivering_ = false;  ///< worker is between pop and delivery end
  std::uint64_t enqueued_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t consumer_errors_ = 0;
  std::thread worker_;  ///< last member: joins before the rest is torn down
};

}  // namespace harl
