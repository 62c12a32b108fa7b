#pragma once

/// \file task_select.hpp
/// Open task-selection registry (TaskSelectRegistry) and the built-in
/// rules: greedy argmin-gradient, SW-UCB bandit, round-robin.  Invariant:
/// a rule is chosen by name only — `SearchOptions::task_select_name`, else
/// the rule the policy was registered with.  Collaborators: TaskScheduler,
/// SearchOptions, PolicyRegistry.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/name_registry.hpp"

namespace harl {

class TaskScheduler;
struct SearchOptions;

/// How a tuner distributes measurement trials across subgraphs — the first
/// level of HARL's hierarchy, as an open interface (the same treatment
/// `SearchPolicy` got with `PolicyRegistry`).
///
/// The scheduler handles warmup itself (every task gets one round before any
/// selector runs), then calls `select` once per round and `on_round` after
/// the round's measurements and records are committed, so stateful rules
/// (bandits, budget allocators) can observe rewards.
class TaskSelector {
 public:
  virtual ~TaskSelector() = default;
  virtual const char* name() const = 0;

  /// Pick the task for the next round.  Must return a value in
  /// [0, sched.num_tasks()).
  virtual int select(const TaskScheduler& sched) = 0;

  /// Observe the completed round for `task` (called after commit, before the
  /// round is logged).  Default: stateless rules ignore it.
  virtual void on_round(const TaskScheduler& sched, int task) {
    (void)sched;
    (void)task;
  }
};

/// String-keyed factory registry of task-selection rules.  Built-ins
/// ("greedy-gradient", "sw-ucb", "round-robin") register themselves on first
/// use; external schedulers plug in custom budget allocators without
/// touching library sources:
///
///   TaskSelectRegistry::instance().register_selector(
///       "my-allocator", [](int num_tasks, const SearchOptions& opts) {
///         return std::make_unique<MyAllocator>(num_tasks, opts.seed);
///       });
///   SearchOptions opts = quick_options(PolicyKind::kHarl);
///   opts.task_select_name = "my-allocator";   // instead of HARL's "sw-ucb"
///
/// Lookup is case-insensitive so names round-trip through command-line
/// flags.  All methods are thread-safe (`FleetTuner` builds schedulers from
/// several fleet threads at once).
class TaskSelectRegistry {
 public:
  /// Factory contract: build a selector for a scheduler with `num_tasks`
  /// tasks.  `opts` carries the whole option set (UCB parameters, seeds...).
  using Factory = std::function<std::unique_ptr<TaskSelector>(
      int num_tasks, const SearchOptions& opts)>;

  /// The process-wide registry, with built-ins registered.
  static TaskSelectRegistry& instance();

  /// Registers `factory` under `name`.  Returns false (and keeps the
  /// existing entry) when the name — case-insensitively — is already taken.
  bool register_selector(const std::string& name, Factory factory);

  bool contains(const std::string& name) const;

  /// Instantiates the selector registered under `name` (case-insensitive).
  /// Returns nullptr for unknown names.
  std::unique_ptr<TaskSelector> create(const std::string& name, int num_tasks,
                                       const SearchOptions& opts) const;

  /// Registered names in their canonical (registration) spelling, sorted.
  std::vector<std::string> names() const;

 private:
  TaskSelectRegistry() = default;

  NameRegistry<Factory> entries_;
};

/// Instantiate a selector by registry name.  Throws std::invalid_argument
/// listing the registered names when `name` is unknown (a bad name is user
/// input, like a bad policy name).
std::unique_ptr<TaskSelector> make_task_selector(const std::string& name,
                                                 int num_tasks,
                                                 const SearchOptions& opts);

}  // namespace harl
