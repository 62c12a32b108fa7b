/// Experience tooling for record logs: turn the JSONL files tuning runs and
/// fleets write into reusable knowledge.
///
///   harl_harvest harvest --out=model.json [--hw=xeon|rtx3090]
///                [--trees=N] [--depth=N] [--histogram] [--seed=N]
///                LOG... [--dir=DIR]
///       Fold the logs into one training set (deterministic: same records in
///       any order produce the same model bytes) and pre-train a GBDT that
///       tune_network's model flag / `SearchOptions::experience_model` /
///       `FleetTuner::Options::experience_model` start warm from.
///
///   harl_harvest value --out=model.json [--hw=xeon|rtx3090]
///                [--trees=N] [--depth=N] [--histogram] [--seed=N]
///                LOG... [--dir=DIR]
///       Train the partial-schedule value model: label every decision prefix
///       of every logged schedule with the best final quality reachable from
///       it, and fit a GBDT over prefix features.  The output feeds
///       tune_network's value-model flag / `SearchOptions::value_guide` /
///       `FleetTuner::Options::value_model` for value-guided search.
///
///   harl_harvest compact --out=PATH [--best-k=N] [--window=N] LOG...
///       Keep each run's best-k records plus its most recent window, writing
///       the same schema (readers, resume, transfer, and harvesting accept
///       the compacted file transparently).
///
///   harl_harvest stats LOG... [--dir=DIR]
///       Per-(network, task, policy, seed) record counts and best times.
///
/// `--dir=DIR` adds every `*.jsonl` file in DIR (sorted) to the input list —
/// handy on a `FleetTuner::Options::log_dir`.  `--help` prints usage.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/harl.hpp"

namespace {

using namespace harl;

bool flag_value(const char* arg, const char* name, const char** value) {
  std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

struct CommonArgs {
  std::vector<std::string> logs;
  std::string out;
  std::string hw_name = "xeon";
  GbdtConfig gbdt;
  CompactOptions compact;
  bool parsed_ok = true;
  bool help = false;
};

CommonArgs parse_args(int argc, char** argv, int first) {
  CommonArgs args;
  for (int i = first; i < argc; ++i) {
    const char* v = nullptr;
    if (flag_value(argv[i], "--out", &v)) {
      args.out = v;
    } else if (flag_value(argv[i], "--hw", &v)) {
      args.hw_name = v;
    } else if (flag_value(argv[i], "--trees", &v)) {
      args.gbdt.num_trees = std::atoi(v);
    } else if (flag_value(argv[i], "--depth", &v)) {
      args.gbdt.max_depth = std::atoi(v);
    } else if (flag_value(argv[i], "--seed", &v)) {
      args.gbdt.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--histogram") == 0) {
      args.gbdt.split_mode = SplitMode::kHistogram;
    } else if (flag_value(argv[i], "--best-k", &v)) {
      args.compact.best_k = std::atoi(v);
    } else if (flag_value(argv[i], "--window", &v)) {
      args.compact.window = std::atoi(v);
    } else if (flag_value(argv[i], "--dir", &v)) {
      std::string error;
      for (std::string& f : jsonl_files(v, &error)) args.logs.push_back(std::move(f));
      if (!error.empty()) std::fprintf(stderr, "%s\n", error.c_str());
    } else if (std::strcmp(argv[i], "--help") == 0) {
      args.help = true;
    } else if (argv[i][0] != '-') {
      args.logs.push_back(argv[i]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      args.parsed_ok = false;
    }
  }
  return args;
}

int cmd_harvest(const CommonArgs& args) {
  if (args.out.empty()) {
    std::fprintf(stderr, "harvest: --out=PATH is required\n");
    return 1;
  }
  std::optional<HardwareConfig> hw = HardwareConfig::preset(args.hw_name);
  if (!hw) {
    std::fprintf(stderr, "unknown --hw=%s (%s)\n",
                 args.hw_name.c_str(), HardwareConfig::kPresetNames);
    return 1;
  }

  ExperienceStore store;
  for (const std::string& log : args.logs) {
    std::vector<RecordReadError> errors;
    std::size_t added = store.add_log(log, &errors);
    std::printf("  %-40s %zu records\n", log.c_str(), added);
    for (const RecordReadError& e : errors) {
      std::fprintf(stderr, "%s:%zu: skipped: %s\n", log.c_str(), e.line_number,
                   e.message.c_str());
    }
  }
  HarvestStats stats;
  Gbdt model = store.pretrain(*hw, args.gbdt, make_builtin_resolver(), &stats);

  std::printf(
      "\nharvest: %zu records (%zu duplicate, %zu unknown-task, %zu invalid) "
      "-> %zu rows over %zu task groups; %zu malformed lines skipped\n",
      stats.records, stats.duplicates, stats.unknown_tasks,
      stats.invalid_schedules, stats.rows, stats.groups, stats.lines_skipped);
  if (!model.trained()) {
    std::fprintf(stderr, "harvest: not enough rows to train a model\n");
    return 1;
  }
  std::string error;
  if (!save_gbdt(model, args.out, &error)) {
    std::fprintf(stderr, "harvest: %s\n", error.c_str());
    return 1;
  }
  std::printf("model: %s (%d trees, %d nodes, target hw %s)\n", args.out.c_str(),
              model.num_trees_fit(), model.total_nodes(), hw->name.c_str());
  return 0;
}

int cmd_value(const CommonArgs& args) {
  if (args.out.empty()) {
    std::fprintf(stderr, "value: --out=PATH is required\n");
    return 1;
  }
  std::optional<HardwareConfig> hw = HardwareConfig::preset(args.hw_name);
  if (!hw) {
    std::fprintf(stderr, "unknown --hw=%s (%s)\n",
                 args.hw_name.c_str(), HardwareConfig::kPresetNames);
    return 1;
  }

  ExperienceStore store;
  for (const std::string& log : args.logs) {
    std::vector<RecordReadError> errors;
    std::size_t added = store.add_log(log, &errors);
    std::printf("  %-40s %zu records\n", log.c_str(), added);
    for (const RecordReadError& e : errors) {
      std::fprintf(stderr, "%s:%zu: skipped: %s\n", log.c_str(), e.line_number,
                   e.message.c_str());
    }
  }
  HarvestStats stats;
  Gbdt model =
      store.pretrain_value(*hw, args.gbdt, make_builtin_resolver(), &stats);

  std::printf(
      "\nvalue: %zu records (%zu duplicate, %zu unknown-task, %zu invalid) "
      "-> %zu prefix rows over %zu task groups; %zu malformed lines skipped\n",
      stats.records, stats.duplicates, stats.unknown_tasks,
      stats.invalid_schedules, stats.rows, stats.groups, stats.lines_skipped);
  if (!model.trained()) {
    std::fprintf(stderr, "value: not enough rows to train a model\n");
    return 1;
  }
  std::string error;
  if (!save_gbdt(model, args.out, &error)) {
    std::fprintf(stderr, "value: %s\n", error.c_str());
    return 1;
  }
  std::printf("value model: %s (%d trees, %d nodes, target hw %s)\n",
              args.out.c_str(), model.num_trees_fit(), model.total_nodes(),
              hw->name.c_str());
  return 0;
}

int cmd_compact(const CommonArgs& args) {
  if (args.out.empty()) {
    std::fprintf(stderr, "compact: --out=PATH is required\n");
    return 1;
  }
  // Merge every input, then compact once: best-k/window are per run
  // identity, so multi-log inputs fold correctly.
  std::vector<TuningRecord> records;
  std::size_t skipped = 0;
  for (const std::string& log : args.logs) {
    std::vector<RecordReadError> errors;
    std::vector<TuningRecord> r = read_records(log, &errors);
    skipped += errors.size();
    for (const RecordReadError& e : errors) {
      std::fprintf(stderr, "%s:%zu: skipped: %s\n", log.c_str(), e.line_number,
                   e.message.c_str());
    }
    for (TuningRecord& rec : r) records.push_back(std::move(rec));
  }
  CompactStats stats;
  std::vector<TuningRecord> kept = compact_records(records, args.compact, &stats);
  RecordWriter writer;
  if (!writer.open(args.out, /*append=*/false)) {
    std::fprintf(stderr, "compact: cannot write %s\n", args.out.c_str());
    return 1;
  }
  for (const TuningRecord& r : kept) {
    if (!writer.write(r)) {
      std::fprintf(stderr, "compact: short write to %s, output incomplete\n",
                   args.out.c_str());
      return 1;
    }
  }
  writer.flush();
  writer.close();
  std::printf(
      "compact: %zu -> %zu records over %zu run groups (best-k %d, window %d); "
      "%zu malformed lines skipped\n  %s\n",
      stats.records_in, stats.records_out, stats.groups, args.compact.best_k,
      args.compact.window, skipped, args.out.c_str());
  return 0;
}

int cmd_stats(const CommonArgs& args) {
  struct Group {
    std::size_t records = 0;
    std::size_t cached = 0;
    double best_ms = 0;
    std::int64_t max_trial = -1;
  };
  std::map<std::string, Group> groups;
  std::size_t total = 0, skipped = 0;
  for (const std::string& log : args.logs) {
    std::vector<RecordReadError> errors;
    for (const TuningRecord& r : read_records(log, &errors)) {
      ++total;
      std::string key = r.network + " / " + r.task + " / " + r.policy + " / s" +
                        std::to_string(r.seed);
      Group& g = groups[key];
      ++g.records;
      if (r.cached) ++g.cached;
      if (g.best_ms == 0 || r.time_ms < g.best_ms) g.best_ms = r.time_ms;
      g.max_trial = std::max(g.max_trial, r.trial_index);
    }
    skipped += errors.size();
    for (const RecordReadError& e : errors) {
      std::fprintf(stderr, "%s:%zu: skipped: %s\n", log.c_str(), e.line_number,
                   e.message.c_str());
    }
  }
  Table table("record log stats");
  table.set_header({"network / task / policy / seed", "records", "cached",
                    "best ms", "max trial"});
  for (const auto& [key, g] : groups) {
    table.add(key, g.records, g.cached, Table::fmt(g.best_ms, 4), g.max_trial);
  }
  table.print();
  std::printf("\n%zu records in %zu groups; %zu malformed lines skipped\n",
              total, groups.size(), skipped);
  return 0;
}

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: harl_harvest <harvest|value|compact|stats> [flags] LOG... "
      "[--dir=DIR]\n"
      "  harvest --out=model.json [--hw=xeon|rtx3090|test] [--trees=N]\n"
      "          [--depth=N] [--histogram] [--seed=N]\n"
      "  value   --out=model.json [--hw=xeon|rtx3090|test] [--trees=N]\n"
      "          [--depth=N] [--histogram] [--seed=N]\n"
      "  compact --out=PATH [--best-k=N] [--window=N]\n"
      "  stats\n"
      "  --dir=DIR adds every *.jsonl under DIR; --help prints usage\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  if (std::strcmp(argv[1], "--help") == 0) {
    usage(stdout);
    return 0;
  }
  CommonArgs args = parse_args(argc, argv, 2);
  if (!args.parsed_ok) return 2;
  if (args.help) {
    usage(stdout);
    return 0;
  }
  if (args.logs.empty()) {
    std::fprintf(stderr, "no input logs\n");
    return 2;
  }
  std::string cmd = argv[1];
  if (cmd == "harvest") return cmd_harvest(args);
  if (cmd == "value") return cmd_value(args);
  if (cmd == "compact") return cmd_compact(args);
  if (cmd == "stats") return cmd_stats(args);
  usage(stderr);
  return 2;
}
