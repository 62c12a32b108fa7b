#include "search/policy_registry.hpp"

#include <algorithm>
#include <cctype>

#include "search/ansor_search.hpp"
#include "search/autotvm_search.hpp"
#include "search/flextensor_search.hpp"
#include "search/harl_search.hpp"
#include "search/random_search.hpp"
#include "search/task_scheduler.hpp"

namespace harl {

namespace {

std::string lowercase(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

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
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = entries_.emplace(
      lowercase(name), Entry{name, std::move(factory), task_select});
  (void)it;
  return inserted;
}

bool PolicyRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(lowercase(name)) > 0;
}

std::string PolicyRegistry::task_select(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(lowercase(name));
  return it == entries_.end() ? std::string() : it->second.task_select;
}

std::unique_ptr<SearchPolicy> PolicyRegistry::create(
    const std::string& name, TaskState* task, const SearchOptions& opts) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(lowercase(name));
    if (it == entries_.end()) return nullptr;
    factory = it->second.factory;  // copy so creation runs unlocked
  }
  return factory(task, opts);
}

std::vector<std::string> PolicyRegistry::names() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(entries_.size());
    for (const auto& kv : entries_) out.push_back(kv.second.canonical_name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace harl
