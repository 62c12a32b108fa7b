#pragma once

/// \file shard_snapshot.hpp
/// Shard hydration: a serving shard's KnowledgeCache rebuilt from a snapshot
/// of the cache plus the record-log bytes appended since it was taken, so a
/// daemon restart costs O(cache), not O(history).  Invariant: snapshot +
/// tails == replay.  An entry keeps the `top_k` records under a total order
/// with byte dedup, so top_k(A ∪ B) = top_k(top_k(A) ∪ B), and the hydrated
/// cache serializes to the bytes a full replay of the logs gives.
/// Collaborators: KnowledgeCache, RecordReader (LogCoverage), safe_file,
/// HarlServer.

#include <map>
#include <string>

#include "io/record_io.hpp"
#include "serve/knowledge_cache.hpp"

namespace harl {

/// A shard snapshot's file name inside the shard directory.  It does not end
/// in `.jsonl`, so it is never replayed as a log.  Layout: one manifest line
/// (`{"harl_snapshot":1,"logs":[...]}`, the `LogCoverage` of every log by
/// file name), then the `cache_to_json` bytes, then the `safe_file` CRC
/// footer.
inline constexpr const char kShardSnapshotFile[] = "knowledge.snapshot";

/// A snapshot's manifest line (with its trailing newline) for `logs`.
std::string manifest_line(const std::map<std::string, LogCoverage>& logs);

/// Decodes a manifest line into `*out`, by log file name (a duplicated name
/// counts by its last entry).  False, with `*out` untouched, on malformed
/// JSON, another version, or a log entry that is not an object with a
/// string "file" and all six coverage numbers.
bool parse_manifest(const std::string& line,
                    std::map<std::string, LogCoverage>* out);

/// What one `hydrate_shard` call folded in.
struct ShardHydration {
  /// Per log file name, the prefix now in the cache (logs with no complete
  /// line are left out).
  std::map<std::string, LogCoverage> coverage;
  /// The hydration started from a valid snapshot.
  bool restored = false;
  /// That snapshot already covered every log as far as `coverage` does (no
  /// tail was replayed), so a new snapshot would say the same.
  bool current = false;
};

/// Hydrate `*cache`, which must be freshly constructed with the shard's
/// options, from the shard directory `dir`.  It starts from the snapshot when
/// the snapshot validates: its CRC holds, every log it covers still holds
/// that prefix (`log_covers`: same inode, long enough, same last covered
/// line), and it was taken under `cache->options()`.  Otherwise it starts
/// from an empty cache.  Either way every `*.jsonl` in `dir` is then
/// replayed from the offset the snapshot covers (0 when uncovered); with no
/// snapshot that is a full replay.  A restored snapshot leaves the serve
/// counters at zero and the generation at 0, so the insert counters count
/// tail records only.  The logs must not be rewritten while this runs (the
/// daemon calls it before a shard's fleet starts and after it stops).
ShardHydration hydrate_shard(const std::string& dir, KnowledgeCache* cache);

/// Hydrate a scratch cache with `opts` from `dir`, from disk alone, and
/// write the snapshot of the result (atomically, without fsync: a lost or
/// torn snapshot only costs a full replay).  Skips the write when the
/// snapshot on disk already covers every log as far as it goes.
bool snapshot_shard(const std::string& dir, const KnowledgeCacheOptions& opts,
                    std::string* error = nullptr);

}  // namespace harl
