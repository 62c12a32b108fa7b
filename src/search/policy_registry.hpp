#pragma once

/// \file policy_registry.hpp
/// Open string-keyed policy factory (case-insensitive, thread-safe):
/// built-ins self-register; custom policies plug in by name via
/// `SearchOptions::policy_name` with no library edits.  Invariant: name
/// lookup is the single path every policy — built-in or external — is
/// created through, and each name carries its default task-selection rule.
/// Collaborators: TaskScheduler/make_policy, CLIs.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "search/search_common.hpp"
#include "util/name_registry.hpp"

namespace harl {

struct SearchOptions;

/// The built-in per-subgraph search policies.  Only the option presets
/// (`quick_options`/`paper_options`) take a kind; a run names its policy by
/// `SearchOptions::policy_name`, and `policy_kind_name` is the name each
/// built-in is registered under.
enum class PolicyKind {
  kHarl,            ///< full HARL (hierarchical RL + adaptive stopping)
  kHarlFixedLength, ///< "Hierarchical-RL" ablation: no adaptive stopping
  kAnsor,           ///< evolutionary baseline
  kFlextensor,      ///< fixed-sketch RL baseline
  kAutoTvmSa,       ///< simulated-annealing baseline
  kRandom,
};

const char* policy_kind_name(PolicyKind kind);

/// String-keyed factory registry of per-subgraph search policies.  Built-in
/// policies register themselves on first use; external code extends the
/// tuner without touching library sources:
///
///   PolicyRegistry::instance().register_policy(
///       "my-policy", [](TaskState* task, const SearchOptions& opts) {
///         return std::make_unique<MyPolicy>(task, opts.seed);
///       });
///   SearchOptions opts = quick_options(PolicyKind::kHarl);
///   opts.policy_name = "my-policy";   // runs under the "sw-ucb" rule
///   TuningSession session(net, hw, opts);
///
/// Each name is registered with the task-selection rule a run uses when
/// `SearchOptions::task_select_name` is empty (see task_select.hpp).
///
/// Lookup is case-insensitive ("harl" == "HARL") so registry names
/// round-trip through `--policy=` command-line flags.  All methods are
/// thread-safe: `FleetTuner` instantiates policies from several fleet
/// threads at once.
class PolicyRegistry {
 public:
  /// Factory contract: build a policy for `task`.  `opts` carries the whole
  /// per-task option set; the per-task seed is already derived (task index
  /// folded in), so factories should seed from `opts.seed` alone.
  using Factory = std::function<std::unique_ptr<SearchPolicy>(
      TaskState* task, const SearchOptions& opts)>;

  /// The process-wide registry, with built-ins registered.
  static PolicyRegistry& instance();

  /// Registers `factory` under `name`, with `task_select` as the policy's
  /// default task-selection rule.  Returns false (and keeps the existing
  /// entry) when the name — case-insensitively — is already taken, or when
  /// an argument is empty.
  bool register_policy(const std::string& name, Factory factory,
                       const std::string& task_select = "sw-ucb");

  bool contains(const std::string& name) const;

  /// The default task-selection rule registered with `name`
  /// (case-insensitive); empty for unknown names.
  std::string task_select(const std::string& name) const;

  /// Instantiates the policy registered under `name` (case-insensitive).
  /// Returns nullptr for unknown names.
  std::unique_ptr<SearchPolicy> create(const std::string& name, TaskState* task,
                                       const SearchOptions& opts) const;

  /// Registered names in their canonical (registration) spelling, sorted.
  std::vector<std::string> names() const;

 private:
  PolicyRegistry() = default;

  struct Entry {
    Factory factory;
    std::string task_select;
  };

  NameRegistry<Entry> entries_;
};

}  // namespace harl
