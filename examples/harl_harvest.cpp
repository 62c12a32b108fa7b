/// Experience tooling for record logs: turn the JSONL files tuning runs and
/// fleets write into reusable knowledge.
///
///   harl_harvest harvest LOG...
///       Fold the logs into one training set (deterministic: same records in
///       any order produce the same model bytes) and pre-train a GBDT that
///       tune_network's model flag / `SearchOptions::experience_model` /
///       `FleetTuner::Options::experience_model` start warm from.
///
///   harl_harvest value LOG...
///       Train the partial-schedule value model: label every decision prefix
///       of every logged schedule with the best final quality reachable from
///       it, and fit a GBDT over prefix features.  The output feeds
///       tune_network's value-model flag / `SearchOptions::value_guide` /
///       `FleetTuner::Options::value_model` for value-guided search.
///
///   harl_harvest compact LOG...
///       Keep each run's best-k records plus its most recent window, writing
///       the same schema (readers, resume, transfer, and harvesting accept
///       the compacted file transparently).
///
///   harl_harvest stats LOG...
///       Per-(network, task, policy, seed) record counts and best times.
///
/// `--dir=DIR` adds every `*.jsonl` file in DIR (sorted) to the input list,
/// in command-line order among the LOG arguments — handy on a
/// `FleetTuner::Options::log_dir`.  `--help` lists every flag.
///
/// Exit codes: 0 done, 1 setup error (unknown hardware, a missing --out, no
/// model trained, an unwritable output), 2 usage error.

#include <algorithm>
#include <climits>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/harl.hpp"
#include "util/flags.hpp"

namespace {

using namespace harl;

struct CommonArgs {
  std::vector<std::string> logs;
  std::string out;
  std::string hw_name = "xeon";
  GbdtConfig gbdt;
  CompactOptions compact;
};

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

}  // namespace

int main(int argc, char** argv) {
  CommonArgs args;
  bool histogram = false;
  Flags flags("harl_harvest <harvest|value|compact|stats>");
  flags.add_each("LOG...", "", [&](const std::string& log) { args.logs.push_back(log); },
                 "record logs to read");
  flags.add_string("--out", "PATH", &args.out,
                   "output model (harvest, value) or log (compact); required");
  flags.add_string("--hw", "NAME", &args.hw_name,
                   "harvest/value: xeon (default), xeon_6226r, rtx3090, gpu, test");
  flags.add_int("--trees", "N", &args.gbdt.num_trees, 1, INT_MAX,
                "harvest/value: boosted trees (default 50)");
  flags.add_int("--depth", "N", &args.gbdt.max_depth, 1, INT_MAX,
                "harvest/value: tree depth (default 6)");
  flags.add_switch("--histogram", &histogram, "harvest/value: histogram split search");
  flags.add_u64("--seed", "N", &args.gbdt.seed, "harvest/value: GBDT seed (default 7)");
  flags.add_int("--best-k", "N", &args.compact.best_k, 0, INT_MAX,
                "compact: fastest records kept per run (default 8)");
  flags.add_int("--window", "N", &args.compact.window, 0, INT_MAX,
                "compact: most recent records kept per run (default 64)");
  flags.add_each("--dir", "DIR",
                 [&](const std::string& dir) {
                   std::string error;
                   for (std::string& f : jsonl_files(dir, &error)) {
                     args.logs.push_back(std::move(f));
                   }
                   if (!error.empty()) std::fprintf(stderr, "%s\n", error.c_str());
                 },
                 "add every *.jsonl under DIR (sorted)");
  const bool has_cmd = argc >= 2 && argv[1][0] != '-';
  flags.parse(argc, argv, has_cmd ? 2 : 1);
  if (!has_cmd) Flags::fail("missing command: harvest, value, compact or stats");
  if (histogram) args.gbdt.split_mode = SplitMode::kHistogram;
  if (args.logs.empty()) Flags::fail("no input logs");
  std::string cmd = argv[1];
  if (cmd == "harvest") return cmd_harvest(args);
  if (cmd == "value") return cmd_value(args);
  if (cmd == "compact") return cmd_compact(args);
  if (cmd == "stats") return cmd_stats(args);
  Flags::fail("unknown command " + cmd);
}
