#include "exp/compact.hpp"

#include <algorithm>
#include <map>
#include <tuple>

namespace harl {

namespace {

/// Run-identity key of a record (the `resume_session` match granularity —
/// including the experience-model fingerprint, so a cold run and a warm run
/// appended to the same log keep their own best-k and window).
using GroupKey = std::tuple<std::string, std::string, std::uint64_t, std::string,
                            std::uint64_t, std::uint64_t>;

GroupKey key_of(const TuningRecord& r) {
  return {r.network, r.task, r.hardware_fp, r.policy, r.seed, r.experience_fp};
}

}  // namespace

std::vector<TuningRecord> compact_records(const std::vector<TuningRecord>& records,
                                          const CompactOptions& opts,
                                          CompactStats* stats) {
  // Indices of each group's records in input order.  std::map keys give a
  // deterministic group iteration order, though the output order is input
  // order anyway.
  std::map<GroupKey, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < records.size(); ++i) {
    groups[key_of(records[i])].push_back(i);
  }

  std::vector<char> keep(records.size(), 0);
  std::size_t best_k = opts.best_k < 0 ? 0 : static_cast<std::size_t>(opts.best_k);
  std::size_t window = opts.window < 0 ? 0 : static_cast<std::size_t>(opts.window);
  for (const auto& [key, idx] : groups) {
    (void)key;
    // Best-k by measured time; ties keep the earlier record, so the record
    // `transfer_history_best` would pick (first minimum) always survives.
    // Failed records log time_ms 0 and would otherwise outrank every real
    // measurement — they may only survive through the recency window.
    std::vector<std::size_t> by_time;
    by_time.reserve(idx.size());
    for (std::size_t i : idx) {
      if (records[i].fail.empty() && records[i].time_ms > 0) by_time.push_back(i);
    }
    std::stable_sort(by_time.begin(), by_time.end(), [&](std::size_t a, std::size_t b) {
      return records[a].time_ms < records[b].time_ms;
    });
    for (std::size_t k = 0; k < by_time.size() && k < best_k; ++k) {
      keep[by_time[k]] = 1;
    }
    // Most recent `window` in commit (input) order.
    std::size_t start = idx.size() > window ? idx.size() - window : 0;
    for (std::size_t k = start; k < idx.size(); ++k) keep[idx[k]] = 1;
  }

  std::vector<TuningRecord> out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (keep[i]) out.push_back(records[i]);
  }
  if (stats != nullptr) {
    stats->records_in = records.size();
    stats->records_out = out.size();
    stats->groups = groups.size();
  }
  return out;
}

bool compact_log(const std::string& in_path, const std::string& out_path,
                 const CompactOptions& opts, CompactStats* stats) {
  RecordReader reader;
  if (!reader.open(in_path)) return false;
  std::vector<TuningRecord> records;
  TuningRecord rec;
  while (reader.next(&rec)) records.push_back(std::move(rec));
  std::size_t skipped = reader.errors().size();
  reader.close();

  std::vector<TuningRecord> kept = compact_records(records, opts, stats);
  if (stats != nullptr) stats->lines_skipped = skipped;

  RecordWriter writer;
  if (!writer.open(out_path, /*append=*/false)) return false;
  for (const TuningRecord& r : kept) {
    if (!writer.write(r)) return false;
  }
  writer.flush();
  writer.close();
  return true;
}

}  // namespace harl
