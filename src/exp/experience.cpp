#include "exp/experience.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "features/feature_extractor.hpp"
#include "sched/sketch.hpp"
#include "util/logging.hpp"
#include "workloads/networks.hpp"

namespace harl {

const Subgraph* BuiltinNetworks::resolve(const std::string& network,
                                         const std::string& task) {
  auto it = networks_.find(network);
  if (it == networks_.end()) {
    // "<base>_b<batch>" is the shipped naming scheme (make_bert(2) names
    // itself "bert_b2"); anything else is an unknown custom network.  Only
    // the spelling make_network gives resolves (batch >= 1, no sign, no
    // leading zero, no overflow: the batch must print back as the suffix),
    // so one network is never built and kept under two names, and only a
    // batch up to kMaxBatch, which bounds the memo.
    std::size_t pos = network.rfind("_b");
    if (pos == std::string::npos) return nullptr;
    const std::string digits = network.substr(pos + 2);
    const long long batch = std::strtoll(digits.c_str(), nullptr, 10);
    if (batch < 1 || batch > kMaxBatch || std::to_string(batch) != digits) return nullptr;
    const auto& names = network_names();
    const std::string base = network.substr(0, pos);
    if (std::find(names.begin(), names.end(), base) == names.end()) return nullptr;
    it = networks_
             .emplace(network, std::make_unique<Network>(make_network(base, batch)))
             .first;
  }
  for (const Subgraph& g : it->second->subgraphs) {
    if (g.name() == task) return &g;
  }
  return nullptr;
}

TaskResolver make_builtin_resolver() {
  auto memo = std::make_shared<BuiltinNetworks>();
  return [memo](const std::string& network, const std::string& task) {
    return memo->resolve(network, task);
  };
}

std::size_t ExperienceStore::add_log(const std::string& path) {
  return add_log(path, nullptr);
}

std::size_t ExperienceStore::add_log(const std::string& path,
                                     std::vector<RecordReadError>* errors) {
  std::vector<RecordReadError> local;
  std::vector<TuningRecord> records = read_records(path, &local);
  ++logs_read_;
  lines_skipped_ += local.size();
  if (errors != nullptr) *errors = std::move(local);
  std::size_t added = records.size();
  for (TuningRecord& r : records) records_.push_back(std::move(r));
  return added;
}

void ExperienceStore::add_records(const std::vector<TuningRecord>& records) {
  records_.insert(records_.end(), records.begin(), records.end());
}

ExperienceDataset ExperienceStore::build_dataset(const HardwareConfig& hw,
                                                 const TaskResolver& resolver,
                                                 HarvestStats* stats,
                                                 ThreadPool* pool) const {
  HarvestStats local;
  local.logs_read = logs_read_;
  local.lines_skipped = lines_skipped_;
  local.records = records_.size();

  // Canonical order: every record's serialized form is a total order over
  // its full contents, so sorting by it (and dropping adjacent duplicates)
  // makes the dataset independent of the order logs were added in and
  // idempotent under overlapping inputs (a log plus its own compaction).
  std::vector<std::size_t> order(records_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::string> serialized(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    serialized[i] = record_to_json(records_[i]);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return serialized[a] < serialized[b];
  });
  order.erase(std::unique(order.begin(), order.end(),
                          [&](std::size_t a, std::size_t b) {
                            return serialized[a] == serialized[b];
                          }),
              order.end());
  local.duplicates = records_.size() - order.size();

  // Group rows by (network, task, hardware fingerprint): labels are
  // normalized against the best time *within* the group, like the online
  // cost model normalizes against the task best.
  using GroupKey = std::tuple<std::string, std::string, std::uint64_t>;
  std::map<GroupKey, std::vector<std::size_t>> groups;
  for (std::size_t i : order) {
    const TuningRecord& r = records_[i];
    // Failed and timeless records teach nothing; keep faults out of training.
    if (!(r.time_ms > 0) || !r.fail.empty()) continue;
    groups[{r.network, r.task, r.hardware_fp}].push_back(i);
  }

  // Reconstruct schedules group by group.  Sketch sets are generated once
  // per distinct task and kept alive until features are extracted (schedules
  // point into them).
  std::vector<std::unique_ptr<std::vector<Sketch>>> sketch_sets;
  std::map<std::pair<std::string, std::string>, const std::vector<Sketch>*>
      sketches_by_task;
  const int num_unroll = hw.num_unroll_options();
  std::vector<Schedule> scheds;
  ExperienceDataset out;

  for (const auto& [key, idx] : groups) {
    const auto& [net_name, task_name, hw_fp] = key;
    (void)hw_fp;
    const std::vector<Sketch>** slot = &sketches_by_task[{net_name, task_name}];
    if (*slot == nullptr) {
      const Subgraph* graph = resolver ? resolver(net_name, task_name) : nullptr;
      if (graph == nullptr) {
        local.unknown_tasks += idx.size();
        sketches_by_task.erase({net_name, task_name});
        continue;
      }
      sketch_sets.push_back(
          std::make_unique<std::vector<Sketch>>(generate_sketches(*graph)));
      *slot = sketch_sets.back().get();
    }
    const std::vector<Sketch>& sketches = **slot;

    std::size_t group_start = scheds.size();
    double best = 0;
    for (std::size_t i : idx) {
      const TuningRecord& r = records_[i];
      std::string error;
      Schedule s = schedule_from_record(r, sketches, num_unroll, &error);
      if (s.sketch == nullptr) {
        ++local.invalid_schedules;
        continue;
      }
      scheds.push_back(std::move(s));
      out.labels.push_back(r.time_ms);  // raw time for now; normalized below
      best = best == 0 ? r.time_ms : std::min(best, r.time_ms);
    }
    if (scheds.size() == group_start) continue;
    ++local.groups;
    for (std::size_t k = group_start; k < scheds.size(); ++k) {
      out.labels[k] = best / out.labels[k];
    }
  }

  out.rows = scheds.size();
  local.rows = out.rows;
  out.num_features = FeatureExtractor::kNumFeatures;
  out.features.resize(out.rows * FeatureExtractor::kNumFeatures);
  if (out.rows > 0) {
    FeatureExtractor fx(&hw);
    fx.extract_matrix_into(scheds, out.features.data(), pool);
  }
  if (stats != nullptr) *stats = local;
  return out;
}

ExperienceDataset ExperienceStore::build_value_dataset(
    const HardwareConfig& hw, const TaskResolver& resolver,
    HarvestStats* stats) const {
  HarvestStats local;
  local.logs_read = logs_read_;
  local.lines_skipped = lines_skipped_;
  local.records = records_.size();

  // Same canonical order + dedup as build_dataset: the value set must be a
  // pure function of the record set too.
  std::vector<std::size_t> order(records_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::string> serialized(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    serialized[i] = record_to_json(records_[i]);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return serialized[a] < serialized[b];
  });
  order.erase(std::unique(order.begin(), order.end(),
                          [&](std::size_t a, std::size_t b) {
                            return serialized[a] == serialized[b];
                          }),
              order.end());
  local.duplicates = records_.size() - order.size();

  using GroupKey = std::tuple<std::string, std::string, std::uint64_t>;
  std::map<GroupKey, std::vector<std::size_t>> groups;
  for (std::size_t i : order) {
    const TuningRecord& r = records_[i];
    if (!(r.time_ms > 0) || !r.fail.empty()) continue;
    groups[{r.network, r.task, r.hardware_fp}].push_back(i);
  }

  std::vector<std::unique_ptr<std::vector<Sketch>>> sketch_sets;
  std::map<std::pair<std::string, std::string>, const std::vector<Sketch>*>
      sketches_by_task;
  const int num_unroll = hw.num_unroll_options();

  // One value row per distinct decided prefix: the schedule it was first
  // seen with, the depth, and the best final (normalized) score reached by
  // any completion sharing the prefix.
  std::vector<Schedule> row_scheds;
  std::vector<int> row_depths;
  ExperienceDataset out;

  for (const auto& [key, idx] : groups) {
    const auto& [net_name, task_name, hw_fp] = key;
    (void)hw_fp;
    const std::vector<Sketch>** slot = &sketches_by_task[{net_name, task_name}];
    if (*slot == nullptr) {
      const Subgraph* graph = resolver ? resolver(net_name, task_name) : nullptr;
      if (graph == nullptr) {
        local.unknown_tasks += idx.size();
        sketches_by_task.erase({net_name, task_name});
        continue;
      }
      sketch_sets.push_back(
          std::make_unique<std::vector<Sketch>>(generate_sketches(*graph)));
      *slot = sketch_sets.back().get();
    }
    const std::vector<Sketch>& sketches = **slot;

    std::vector<Schedule> group_scheds;
    std::vector<double> group_times;
    double best = 0;
    for (std::size_t i : idx) {
      const TuningRecord& r = records_[i];
      std::string error;
      Schedule s = schedule_from_record(r, sketches, num_unroll, &error);
      if (s.sketch == nullptr) {
        ++local.invalid_schedules;
        continue;
      }
      group_scheds.push_back(std::move(s));
      group_times.push_back(r.time_ms);
      best = best == 0 ? r.time_ms : std::min(best, r.time_ms);
    }
    if (group_scheds.empty()) continue;
    ++local.groups;

    std::map<std::uint64_t, std::size_t> row_by_prefix;  // key -> out row
    for (std::size_t k = 0; k < group_scheds.size(); ++k) {
      const Schedule& s = group_scheds[k];
      double final_score = best / group_times[k];  // in (0, 1]
      int num_stages = static_cast<int>(s.stages.size());
      for (int d = 1; d <= num_stages; ++d) {
        std::uint64_t pfp = prefix_fingerprint(s, d);
        auto [it, inserted] = row_by_prefix.emplace(pfp, out.labels.size());
        if (inserted) {
          row_scheds.push_back(s);
          row_depths.push_back(d);
          out.labels.push_back(final_score);
        } else {
          out.labels[it->second] = std::max(out.labels[it->second], final_score);
        }
      }
    }
  }

  out.rows = row_scheds.size();
  local.rows = out.rows;
  out.num_features = FeatureExtractor::kNumPrefixFeatures;
  out.features.resize(out.rows * FeatureExtractor::kNumPrefixFeatures);
  if (out.rows > 0) {
    FeatureExtractor fx(&hw);
    for (std::size_t i = 0; i < out.rows; ++i) {
      fx.extract_prefix_into(
          row_scheds[i], row_depths[i],
          out.features.data() + i * FeatureExtractor::kNumPrefixFeatures);
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

Gbdt ExperienceStore::pretrain(const HardwareConfig& hw, const GbdtConfig& cfg,
                               const TaskResolver& resolver, HarvestStats* stats,
                               ThreadPool* pool) const {
  ExperienceDataset data = build_dataset(hw, resolver, stats, pool);
  Gbdt model(cfg);
  if (data.rows >= 4) {
    model.fit(data.features, FeatureExtractor::kNumFeatures, data.labels);
  } else if (data.rows > 0) {
    HARL_LOG_WARN("experience: only %zu harvested rows, model left untrained",
                  data.rows);
  }
  return model;
}

Gbdt ExperienceStore::pretrain_value(const HardwareConfig& hw,
                                     const GbdtConfig& cfg,
                                     const TaskResolver& resolver,
                                     HarvestStats* stats) const {
  ExperienceDataset data = build_value_dataset(hw, resolver, stats);
  Gbdt model(cfg);
  if (data.rows >= 4) {
    model.fit(data.features, FeatureExtractor::kNumPrefixFeatures, data.labels);
  } else if (data.rows > 0) {
    HARL_LOG_WARN("experience: only %zu value rows, model left untrained",
                  data.rows);
  }
  return model;
}

}  // namespace harl
