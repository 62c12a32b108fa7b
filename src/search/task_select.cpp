#include "search/task_select.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "bandit/sw_ucb.hpp"
#include "search/task_scheduler.hpp"

namespace harl {

namespace {

/// Ansor's rule (Observation 1's baseline): argmin of the Eq. 3 gradient.
class GreedyGradientSelector : public TaskSelector {
 public:
  const char* name() const override { return "greedy-gradient"; }
  int select(const TaskScheduler& sched) override {
    int best = 0;
    double best_grad = std::numeric_limits<double>::infinity();
    for (int n = 0; n < sched.num_tasks(); ++n) {
      double grad = sched.task_gradient(n);
      if (grad < best_grad) {
        best_grad = grad;
        best = n;
      }
    }
    return best;
  }
};

/// HARL's rule: non-stationary SW-UCB bandit rewarded with the negated,
/// objective-normalized Eq. 3 gradient.
class SwUcbSelector : public TaskSelector {
 public:
  SwUcbSelector(int num_tasks, const SearchOptions& opts)
      : measures_per_round_(opts.measures_per_round),
        mab_(std::max(1, num_tasks), opts.task_ucb) {}

  const char* name() const override { return "sw-ucb"; }

  int select(const TaskScheduler&) override { return mab_.select(); }

  void on_round(const TaskScheduler& sched, int task) override {
    // MAB reward: the negated Eq. 3 gradient, normalized by the current
    // objective so rewards are dimensionless per-round improvements.
    double f = sched.estimated_latency_ms();
    double reward = 0;
    if (std::isfinite(f) && f > 0) {
      double grad = sched.task_gradient(task);
      if (std::isfinite(grad)) {
        reward = -grad * measures_per_round_ / f;
      }
    }
    mab_.update(task, reward);
  }

 private:
  int measures_per_round_;
  SwUcb mab_;
};

class RoundRobinSelector : public TaskSelector {
 public:
  const char* name() const override { return "round-robin"; }
  int select(const TaskScheduler& sched) override {
    return next_++ % sched.num_tasks();
  }

 private:
  int next_ = 0;
};

void register_builtins(TaskSelectRegistry& reg) {
  reg.register_selector("greedy-gradient",
                        [](int, const SearchOptions&) {
                          return std::make_unique<GreedyGradientSelector>();
                        });
  reg.register_selector("sw-ucb",
                        [](int num_tasks, const SearchOptions& opts) {
                          return std::make_unique<SwUcbSelector>(num_tasks, opts);
                        });
  reg.register_selector("round-robin",
                        [](int, const SearchOptions&) {
                          return std::make_unique<RoundRobinSelector>();
                        });
}

}  // namespace

TaskSelectRegistry& TaskSelectRegistry::instance() {
  static TaskSelectRegistry* reg = [] {
    auto* r = new TaskSelectRegistry();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

bool TaskSelectRegistry::register_selector(const std::string& name,
                                           Factory factory) {
  if (name.empty() || !factory) return false;
  return entries_.add(name, std::move(factory));
}

bool TaskSelectRegistry::contains(const std::string& name) const {
  return entries_.contains(name);
}

std::unique_ptr<TaskSelector> TaskSelectRegistry::create(
    const std::string& name, int num_tasks, const SearchOptions& opts) const {
  std::optional<Factory> factory = entries_.find(name);
  return factory ? (*factory)(num_tasks, opts) : nullptr;
}

std::vector<std::string> TaskSelectRegistry::names() const {
  return entries_.names();
}

std::unique_ptr<TaskSelector> make_task_selector(const std::string& name,
                                                 int num_tasks,
                                                 const SearchOptions& opts) {
  std::unique_ptr<TaskSelector> selector =
      TaskSelectRegistry::instance().create(name, num_tasks, opts);
  if (selector == nullptr) {
    std::string known;
    for (const std::string& n : TaskSelectRegistry::instance().names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("unknown task selector \"" + name +
                                "\" (registered: " + known + ")");
  }
  return selector;
}

}  // namespace harl
