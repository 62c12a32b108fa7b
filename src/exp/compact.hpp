#pragma once

/// \file compact.hpp
/// Record-log compaction: per run identity keep the best-k records plus the
/// most recent window, in the same schema.  Invariant: output is a
/// subsequence of the input that readers, resume, transfer, and harvesting
/// accept transparently with identical best-schedule results.
/// Collaborators: TuningRecord, harl_harvest, ExperienceStore.

#include <cstddef>
#include <string>
#include <vector>

#include "io/record.hpp"
#include "io/record_io.hpp"

namespace harl {

/// What `compact_records` keeps of each run group (a group is one
/// (network, task, hardware fingerprint, policy, seed) identity — the
/// granularity `resume_session` matches on).
struct CompactOptions {
  /// The `best_k` fastest records of the group (ties keep the earlier
  /// record), so `transfer_history_best` and best-schedule queries see exactly
  /// the results the full log would give.
  int best_k = 8;
  /// The most recent `window` records of the group in commit order — the
  /// tail a cost model would train on when warm-starting from the log.
  /// 0 keeps no window (best-k only).
  int window = 64;
};

struct CompactStats {
  std::size_t records_in = 0;
  std::size_t records_out = 0;
  std::size_t groups = 0;
  std::size_t lines_skipped = 0;  ///< malformed input lines (compact_log only)
};

/// Drop every record that is neither among its group's `best_k` fastest nor
/// in its group's most recent `window`.  Surviving records keep their
/// original relative order and exact contents (schema unchanged, trial
/// indices preserved), so `RecordReader`, `resume_session` (the replay table
/// tolerates gaps — dropped trials are simply re-simulated), transfer
/// matching, and the experience harvester all accept a compacted log
/// transparently, and the per-task best schedule is identical to the
/// uncompacted log's.
std::vector<TuningRecord> compact_records(const std::vector<TuningRecord>& records,
                                          const CompactOptions& opts = {},
                                          CompactStats* stats = nullptr);

/// File-to-file convenience: read `in_path` tolerantly (skipping malformed
/// lines), compact, and write `out_path` (truncating).  Returns false when
/// either file cannot be opened; `stats` (optional) reports the reduction.
bool compact_log(const std::string& in_path, const std::string& out_path,
                 const CompactOptions& opts = {}, CompactStats* stats = nullptr);

}  // namespace harl
