#include "io/async_bus.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/logging.hpp"

namespace harl {

AsyncCallbackBus::AsyncCallbackBus(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  worker_ = std::thread([this] { worker_loop(); });
}

AsyncCallbackBus::~AsyncCallbackBus() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Drain before stopping: destruction is a clean shutdown, so everything
    // accepted must still be delivered.
    space_cv_.wait(lock, [this] { return queue_.empty() && !delivering_; });
    stop_ = true;
  }
  queue_cv_.notify_all();
  worker_.join();
}

void AsyncCallbackBus::add(TuningCallback* cb) {
  if (cb == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (std::find(consumers_.begin(), consumers_.end(), cb) != consumers_.end()) {
    return;
  }
  consumers_.push_back(cb);
}

void AsyncCallbackBus::remove(TuningCallback* cb) {
  std::lock_guard<std::mutex> lock(mu_);
  consumers_.erase(std::remove(consumers_.begin(), consumers_.end(), cb),
                   consumers_.end());
}

void AsyncCallbackBus::push(Event event) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Backpressure: wait for the worker to free a slot.  Lossless, so a
    // consumer slower than the hot loop paces tuning once the queue is full.
    space_cv_.wait(lock, [this] { return queue_.size() < capacity_; });
    queue_.push_back(std::move(event));
    ++enqueued_;
  }
  queue_cv_.notify_one();
}

void AsyncCallbackBus::worker_loop() {
  for (;;) {
    Event event;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and fully drained
      event = std::move(queue_.front());
      queue_.pop_front();
      delivering_ = true;
    }
    // A blocked producer can enqueue as soon as the slot is free, even while
    // this event is still being delivered.
    space_cv_.notify_all();
    deliver(event);
    {
      std::lock_guard<std::mutex> lock(mu_);
      delivering_ = false;
      ++delivered_;
    }
    space_cv_.notify_all();
  }
}

void AsyncCallbackBus::deliver(const Event& event) {
  // Snapshot the consumer list so a consumer may add/remove callbacks (on
  // *other* buses or this one) without deadlocking the delivery.
  std::vector<TuningCallback*> consumers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    consumers = consumers_;
  }
  for (TuningCallback* cb : consumers) {
    try {
      switch (event.kind) {
        case Event::Kind::kRecords:
          cb->on_records(*event.scheduler, event.task, event.records);
          break;
        case Event::Kind::kFailure:
          cb->on_failure(*event.scheduler, event.failure);
          break;
        case Event::Kind::kNewBest:
          cb->on_new_best(*event.scheduler, event.task, event.best);
          break;
        case Event::Kind::kRound:
          cb->on_round(*event.scheduler, event.round);
          break;
        case Event::Kind::kTaskComplete:
          cb->on_task_complete(*event.scheduler, event.task);
          break;
      }
    } catch (const std::exception& e) {
      // Isolation: a throwing consumer must not kill the worker (and with it
      // every other consumer) or propagate into the tuning thread.
      std::lock_guard<std::mutex> lock(mu_);
      ++consumer_errors_;
      HARL_LOG_WARN("async callback threw: %s", e.what());
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      ++consumer_errors_;
      HARL_LOG_WARN("async callback threw a non-std exception");
    }
  }
}

bool AsyncCallbackBus::has_consumers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !consumers_.empty();
}

void AsyncCallbackBus::on_records(const TaskScheduler& scheduler, int task,
                                  const std::vector<MeasuredRecord>& records) {
  if (!has_consumers()) return;  // skip the payload copy, not just delivery
  Event e;
  e.kind = Event::Kind::kRecords;
  e.scheduler = &scheduler;
  e.task = task;
  e.records = records;
  push(std::move(e));
}

void AsyncCallbackBus::on_failure(const TaskScheduler& scheduler,
                                  const FailureEvent& failure) {
  if (!has_consumers()) return;
  Event e;
  e.kind = Event::Kind::kFailure;
  e.scheduler = &scheduler;
  e.task = failure.task;
  e.failure = failure;
  push(std::move(e));
}

void AsyncCallbackBus::on_new_best(const TaskScheduler& scheduler, int task,
                                   const MeasuredRecord& best) {
  if (!has_consumers()) return;
  Event e;
  e.kind = Event::Kind::kNewBest;
  e.scheduler = &scheduler;
  e.task = task;
  e.best = best;
  push(std::move(e));
}

void AsyncCallbackBus::on_round(const TaskScheduler& scheduler,
                                const RoundEvent& round) {
  if (!has_consumers()) return;
  Event e;
  e.kind = Event::Kind::kRound;
  e.scheduler = &scheduler;
  e.round = round;
  push(std::move(e));
}

void AsyncCallbackBus::on_task_complete(const TaskScheduler& scheduler, int task) {
  if (!has_consumers()) return;
  Event e;
  e.kind = Event::Kind::kTaskComplete;
  e.scheduler = &scheduler;
  e.task = task;
  push(std::move(e));
}

void AsyncCallbackBus::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  space_cv_.wait(lock, [this] { return queue_.empty() && !delivering_; });
}

void AsyncCallbackBus::flush() {
  std::vector<TuningCallback*> consumers;
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [this] { return queue_.empty() && !delivering_; });
    consumers = consumers_;
  }
  // Forward the flush: a consumer that buffers (and overrides flush())
  // must be drained by a run-exit flush in async mode exactly as it would
  // be in sync mode.  The queue is empty and the worker idle, so calling
  // consumers from this thread cannot race a delivery.
  for (TuningCallback* cb : consumers) {
    try {
      cb->flush();
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu_);
      ++consumer_errors_;
      HARL_LOG_WARN("async callback flush threw: %s", e.what());
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      ++consumer_errors_;
      HARL_LOG_WARN("async callback flush threw a non-std exception");
    }
  }
}

std::uint64_t AsyncCallbackBus::enqueued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enqueued_;
}

std::uint64_t AsyncCallbackBus::delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delivered_;
}

std::uint64_t AsyncCallbackBus::consumer_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consumer_errors_;
}

std::size_t AsyncCallbackBus::backlog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + (delivering_ ? 1 : 0);
}

}  // namespace harl
