#include "search/task_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "cost/gbdt_io.hpp"
#include "search/policy_registry.hpp"
#include "search/task_select.hpp"
#include "util/logging.hpp"

namespace harl {

namespace {

// A bad name is user input (a --policy= flag or SearchOptions field), not an
// internal invariant — report it recoverably, like make_network.
[[noreturn]] void throw_unknown_policy(const std::string& name) {
  std::string known;
  for (const std::string& n : PolicyRegistry::instance().names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::invalid_argument("unknown policy \"" + name +
                              "\" (registered: " + known + ")");
}

}  // namespace

std::unique_ptr<SearchPolicy> make_policy(const std::string& name, TaskState* task,
                                          const SearchOptions& opts) {
  std::unique_ptr<SearchPolicy> policy =
      PolicyRegistry::instance().create(name, task, opts);
  if (policy == nullptr) throw_unknown_policy(name);
  return policy;
}

TaskScheduler::TaskScheduler(const Network* net, const HardwareConfig* hw,
                             SearchOptions opts)
    : net_(net), hw_(hw), opts_(opts) {
  std::string rule = opts_.task_select_name;
  if (rule.empty()) {
    rule = PolicyRegistry::instance().task_select(opts_.policy_name);
    if (rule.empty()) throw_unknown_policy(opts_.policy_name);
  }
  selector_ = make_task_selector(rule, static_cast<int>(net->subgraphs.size()), opts_);
  // Load the pretrained experience model once and share it read-only across
  // every task's cost model (Gbdt::predict is const and stateless).
  if (opts_.cost_model.pretrained == nullptr && !opts_.experience_model.empty()) {
    auto model = std::make_shared<Gbdt>();
    std::string error;
    if (!load_gbdt(opts_.experience_model, model.get(), &error)) {
      HARL_LOG_WARN("experience model ignored: %s", error.c_str());
    } else if (model->num_features() != FeatureExtractor::kNumFeatures) {
      HARL_LOG_WARN(
          "experience model %s has %d features (extractor has %d); ignored",
          opts_.experience_model.c_str(), model->num_features(),
          FeatureExtractor::kNumFeatures);
    } else {
      opts_.cost_model.pretrained = std::move(model);
    }
  }
  if (opts_.cost_model.pretrained != nullptr &&
      opts_.cost_model.pretrained->trained()) {
    experience_fp_ = opts_.cost_model.pretrained_fingerprint != 0
                         ? opts_.cost_model.pretrained_fingerprint
                         : gbdt_fingerprint(*opts_.cost_model.pretrained);
  }
  // Load the partial-schedule value head once, same contract as the
  // experience model above: shared read-only, wrong-width files (e.g. an
  // experience model passed as a value model) warn and fall back to
  // unguided.
  if (opts_.value_guide.enabled) {
    if (opts_.value_guide.model == nullptr && !opts_.value_guide.model_path.empty()) {
      auto model = std::make_shared<Gbdt>();
      std::string error;
      if (!load_gbdt(opts_.value_guide.model_path, model.get(), &error)) {
        HARL_LOG_WARN("value model ignored: %s", error.c_str());
      } else if (model->num_features() != FeatureExtractor::kNumPrefixFeatures) {
        HARL_LOG_WARN(
            "value model %s has %d features (prefix extractor has %d); ignored",
            opts_.value_guide.model_path.c_str(), model->num_features(),
            FeatureExtractor::kNumPrefixFeatures);
      } else {
        opts_.value_guide.model = std::move(model);
      }
    }
    if (opts_.value_guide.model != nullptr && opts_.value_guide.model->trained()) {
      if (opts_.value_guide.model_fingerprint == 0) {
        opts_.value_guide.model_fingerprint =
            gbdt_fingerprint(*opts_.value_guide.model);
      }
      value_fp_ = opts_.value_guide.model_fingerprint;
    }
    if (opts_.value_guide.model != nullptr || opts_.value_guide.sample_clusters > 0) {
      value_guide_ = std::make_unique<ValueGuide>(hw_, opts_.value_guide);
    }
  }
  for (std::size_t n = 0; n < net_->subgraphs.size(); ++n) {
    tasks_.push_back(
        std::make_unique<TaskState>(&net_->subgraphs[n], hw_, opts_.cost_model));
    tasks_.back()->set_pool(opts_.pool);
    tasks_.back()->set_value_guide(value_guide_.get());
    SearchOptions per_task = opts_;
    per_task.seed = opts_.seed + 1000003ULL * (n + 1);
    policies_.push_back(
        make_policy(opts_.policy_name, tasks_.back().get(), per_task));
  }
}

TaskScheduler::~TaskScheduler() = default;

double TaskScheduler::estimated_latency_ms() const {
  double total = 0;
  for (std::size_t n = 0; n < tasks_.size(); ++n) {
    if (!tasks_[n]->has_best()) return std::numeric_limits<double>::infinity();
    total += net_->subgraphs[n].weight() * tasks_[n]->best_time_ms();
  }
  return total;
}

double TaskScheduler::task_gradient(int i) const {
  const TaskState& t = *tasks_[static_cast<std::size_t>(i)];
  if (!t.has_best()) return -std::numeric_limits<double>::infinity();
  double w = t.graph().weight();
  double g = t.best_time_ms();

  // Backward term: observed improvement rate over the last round (Delta t =
  // the trials one round consumes).
  double backward = 0;
  const std::vector<double>& hist = t.best_history();
  if (hist.size() >= 2) {
    double delta_t = std::max(1, opts_.measures_per_round);
    backward = (g - hist[hist.size() - 2]) / delta_t;
  }

  // Forward term: min(-g/t, beta * B / max_similar_throughput - g).
  double trials = static_cast<double>(std::max<std::int64_t>(1, t.trials_spent()));
  double forward = -g / trials;
  double flops_i = t.graph().total_flops();
  double max_similar_speed = 0;  // flops per ms among structurally similar tasks
  for (std::size_t k = 0; k < tasks_.size(); ++k) {
    if (static_cast<int>(k) == i || !tasks_[k]->has_best()) continue;
    if (tasks_[k]->graph().dominant_kind() != t.graph().dominant_kind()) continue;
    // Similarity group M(a): same operator family AND comparable size.
    // Ansor groups by compute-DAG tags; a 100x flops gap means a different
    // regime (e.g. a batch-1 pooler GEMM vs the sequence GEMMs), and using
    // its throughput as the achievable target would chase an impossible
    // prediction forever.
    double ratio = tasks_[k]->graph().total_flops() / std::max(1.0, flops_i);
    if (ratio > 8.0 || ratio < 1.0 / 8.0) continue;
    max_similar_speed = std::max(
        max_similar_speed, tasks_[k]->graph().total_flops() / tasks_[k]->best_time_ms());
  }
  if (max_similar_speed > 0) {
    double predicted_ms = opts_.gradient_beta * flops_i / max_similar_speed;
    forward = std::min(forward, predicted_ms - g);
  }

  return w * (opts_.gradient_alpha * backward + (1 - opts_.gradient_alpha) * forward);
}

int TaskScheduler::select_task() {
  // Warmup: every task gets one round first (all selection rules need a
  // baseline measurement per task).
  for (std::size_t n = 0; n < tasks_.size(); ++n) {
    if (tasks_[n]->rounds() == 0) return static_cast<int>(n);
  }
  return selector_->select(*this);
}

TaskScheduler::RoundResult TaskScheduler::run_round(Measurer& measurer) {
  if (run_start_trials_ < 0) run_start_trials_ = measurer.trials_used();

  RoundResult out;
  out.task = select_task();
  std::int64_t before = measurer.trials_used();
  double best_before = tasks_[static_cast<std::size_t>(out.task)]->best_time_ms();
  std::vector<MeasuredRecord> records = policies_[static_cast<std::size_t>(out.task)]
                                            ->tune_round(measurer, opts_.measures_per_round);
  out.trials_consumed = measurer.trials_used() - before;
  out.records = records.size();

  if (!callbacks_.empty()) {
    callbacks_.emit_records(*this, out.task, records);
    for (const MeasuredRecord& r : records) {
      if (!r.failed()) continue;
      FailureEvent failure;
      failure.task = out.task;
      failure.trial_index = r.trial_index;
      failure.schedule_fp = r.sched.fingerprint();
      failure.status = r.status;
      failure.quarantined = measurer.is_quarantined(failure.schedule_fp);
      callbacks_.emit_failure(*this, failure);
    }
    double best_after = tasks_[static_cast<std::size_t>(out.task)]->best_time_ms();
    if (best_after < best_before) {
      // The improving record is the round's fastest (commit keeps the first
      // such record as the task best).
      const MeasuredRecord* best_rec = nullptr;
      for (const MeasuredRecord& r : records) {
        if (best_rec == nullptr || r.time_ms < best_rec->time_ms) best_rec = &r;
      }
      if (best_rec != nullptr) {
        callbacks_.emit_new_best(*this, out.task, *best_rec);
      }
    }
  }

  selector_->on_round(*this, out.task);

  out.net_latency_ms = estimated_latency_ms();
  round_log_.push_back(
      {out.task, measurer.trials_used() - run_start_trials_, out.net_latency_ms});
  if (!callbacks_.empty()) {
    RoundEvent event;
    event.round_index = round_log_.size() - 1;
    event.task = out.task;
    event.trials_consumed = out.trials_consumed;
    event.trials_after = round_log_.back().trials_after;
    event.records = out.records;
    event.net_latency_ms = out.net_latency_ms;
    callbacks_.emit_round(*this, event);
  }
  return out;
}

void TaskScheduler::run(Measurer& measurer, std::int64_t total_trials) {
  std::int64_t start = measurer.trials_used();
  // The round_log baseline is set once per scheduler (whether by run() or a
  // direct run_round() call), so trials_after stays monotone across mixed
  // and repeated invocations.
  if (run_start_trials_ < 0) run_start_trials_ = start;
  // Saturation guard: once every task's policy stops producing unmeasured
  // candidates (possible with the measure cache on small action spaces),
  // more rounds cannot consume budget — bail instead of spinning.
  const int max_stalled = 2 * num_tasks() + 8;
  int stalled = 0;
  RunExit exit = RunExit::kBudget;
  while (measurer.trials_used() - start < total_trials) {
    // Stop requests are honored at round boundaries only: the round in
    // flight commits and reaches the callbacks (logger flush included), so
    // the log ends on a complete round and resumes bit-identically.
    if (stop_requested()) {
      exit = RunExit::kStopped;
      break;
    }
    RoundResult r = run_round(measurer);
    if (r.trials_consumed == 0) {
      if (++stalled >= max_stalled) {
        exit = RunExit::kSaturated;
        break;
      }
    } else {
      stalled = 0;
    }
  }
  last_run_exit_ = exit;
  // A stopped run is a checkpoint, not a completion: tasks are still
  // mid-budget, so `on_task_complete` would lie to observers.
  if (exit != RunExit::kStopped) {
    for (int n = 0; n < num_tasks(); ++n) {
      callbacks_.emit_task_complete(*this, n);
    }
  }
  // Budget complete: drain async dispatchers so every event of this run has
  // reached its consumers (loggers flushed, refreshers up to date) before
  // control returns to the caller.
  callbacks_.flush_all();
}

std::vector<std::int64_t> TaskScheduler::task_allocations() const {
  std::vector<std::int64_t> out;
  out.reserve(tasks_.size());
  for (const auto& t : tasks_) out.push_back(t->trials_spent());
  return out;
}

}  // namespace harl
