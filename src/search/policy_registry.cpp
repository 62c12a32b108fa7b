#include "search/policy_registry.hpp"

#include "search/ansor_search.hpp"
#include "search/autotvm_search.hpp"
#include "search/flextensor_search.hpp"
#include "search/harl_search.hpp"
#include "search/random_search.hpp"
#include "search/task_scheduler.hpp"

namespace harl {

namespace {

/// The shipped policies, registered under `policy_kind_name` with the task
/// selection each baseline uses: HARL's SW-UCB bandit, Ansor's greedy
/// gradient rule, round-robin for the rest.
void register_builtins(PolicyRegistry& reg) {
  reg.register_policy(policy_kind_name(PolicyKind::kHarl),
                      [](TaskState* task, const SearchOptions& opts) {
                        HarlConfig cfg = opts.harl;
                        cfg.stop.enabled = true;
                        cfg.seed ^= opts.seed;
                        return std::make_unique<HarlSearchPolicy>(task, cfg);
                      },
                      "sw-ucb");
  reg.register_policy(policy_kind_name(PolicyKind::kHarlFixedLength),
                      [](TaskState* task, const SearchOptions& opts) {
                        HarlConfig cfg = opts.harl;
                        cfg.stop.enabled = false;
                        cfg.seed ^= opts.seed;
                        return std::make_unique<HarlSearchPolicy>(task, cfg);
                      },
                      "sw-ucb");
  reg.register_policy(policy_kind_name(PolicyKind::kAnsor),
                      [](TaskState* task, const SearchOptions& opts) {
                        AnsorConfig cfg = opts.ansor;
                        cfg.seed ^= opts.seed;
                        return std::make_unique<AnsorSearchPolicy>(task, cfg);
                      },
                      "greedy-gradient");
  reg.register_policy(policy_kind_name(PolicyKind::kFlextensor),
                      [](TaskState* task, const SearchOptions& opts) {
                        FlextensorConfig cfg = opts.flextensor;
                        cfg.seed ^= opts.seed;
                        return std::make_unique<FlextensorSearchPolicy>(task, cfg);
                      },
                      "round-robin");
  reg.register_policy(policy_kind_name(PolicyKind::kAutoTvmSa),
                      [](TaskState* task, const SearchOptions& opts) {
                        AutoTvmConfig cfg = opts.autotvm;
                        cfg.seed ^= opts.seed;
                        return std::make_unique<AutoTvmSearchPolicy>(task, cfg);
                      },
                      "round-robin");
  reg.register_policy(policy_kind_name(PolicyKind::kRandom),
                      [](TaskState* task, const SearchOptions& opts) {
                        return std::make_unique<RandomSearchPolicy>(task, opts.seed);
                      },
                      "round-robin");
}

}  // namespace

const char* policy_kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kHarl: return "HARL";
    case PolicyKind::kHarlFixedLength: return "Hierarchical-RL";
    case PolicyKind::kAnsor: return "Ansor";
    case PolicyKind::kFlextensor: return "Flextensor";
    case PolicyKind::kAutoTvmSa: return "AutoTVM-SA";
    case PolicyKind::kRandom: return "Random";
  }
  return "?";
}

PolicyRegistry& PolicyRegistry::instance() {
  static PolicyRegistry* reg = [] {
    auto* r = new PolicyRegistry();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

bool PolicyRegistry::register_policy(const std::string& name, Factory factory,
                                     const std::string& task_select) {
  if (name.empty() || !factory || task_select.empty()) return false;
  return entries_.add(name, Entry{std::move(factory), task_select});
}

bool PolicyRegistry::contains(const std::string& name) const {
  return entries_.contains(name);
}

std::string PolicyRegistry::task_select(const std::string& name) const {
  std::optional<Entry> entry = entries_.find(name);
  return entry ? entry->task_select : std::string();
}

std::unique_ptr<SearchPolicy> PolicyRegistry::create(
    const std::string& name, TaskState* task, const SearchOptions& opts) const {
  std::optional<Entry> entry = entries_.find(name);
  return entry ? entry->factory(task, opts) : nullptr;
}

std::vector<std::string> PolicyRegistry::names() const {
  return entries_.names();
}

}  // namespace harl
