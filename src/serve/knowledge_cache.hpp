#pragma once

/// \file knowledge_cache.hpp
/// KnowledgeCache: the tiered schedule-knowledge store that serves tuning
/// answers without a search — L1 exact (network, task, hardware) bests in
/// O(1), L2 scored structural transfer with cost-model re-rank in
/// milliseconds, L3 deterministic golden advice on cold misses.  Invariant:
/// serialization is versioned and byte-stable (save -> load -> save exact
/// bytes), eviction is deterministic, and a served schedule always validates
/// against the *query* task.  Collaborators: ExperienceStore/transfer,
/// record/record_io, Gbdt, KnowledgeCacheUpdater, harl_query.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cost/gbdt.hpp"
#include "hwsim/hardware_config.hpp"
#include "io/record.hpp"
#include "io/record_io.hpp"
#include "sched/sketch.hpp"

namespace harl {

/// Current knowledge-cache file schema version.  Bump on incompatible layout
/// changes; `cache_from_json` rejects files from *newer* versions instead of
/// misparsing them.
inline constexpr int kKnowledgeCacheVersion = 1;

/// Which tier answered a `KnowledgeCache::serve` query.
enum class ServeTier {
  kL1,    ///< exact (network, task, hardware) best, returned verbatim
  kL2,    ///< structural near-miss, transfer-adapted (+ cost-model re-rank)
  kL3,    ///< cold miss served the deterministic golden-advice default
  kMiss,  ///< cold miss with golden advice disabled: caller should tune
};

const char* serve_tier_name(ServeTier tier);

/// Knobs of the tiered cache (persisted with the cache file, so a reloaded
/// cache keeps the eviction/top-k discipline it was built with).
struct KnowledgeCacheOptions {
  /// Records retained per (network, task, hardware) entry, best-first.
  /// Eviction is deterministic: the entry order is total (time ascending,
  /// serialized bytes as tie-break) and the worst record is dropped.
  int top_k = 8;
  /// L2 admission threshold on `hw_sim * extent_sim` (see
  /// `transfer_history_best` for the score's definition).
  double min_score = 0.05;
  /// Pessimism multiplier on L2 time estimates (adapted schedules were never
  /// measured on the query task; overestimating keeps ranking honest).
  double time_penalty = 1.25;
  /// How many of the best-scored L2 candidates are adapted and re-ranked by
  /// the pretrained cost model (when one is set); the rest are ignored.
  int rerank_k = 4;
  /// Serve the deterministic golden-advice schedule on a cold miss instead
  /// of reporting `kMiss` (the "enqueue a real tuning task" signal).
  bool golden_advice = true;
};

/// Monotonic counters of one cache's life (not persisted).
struct ServeStats {
  std::size_t queries = 0;
  std::size_t l1_hits = 0;
  std::size_t l2_hits = 0;
  std::size_t l3_hits = 0;
  std::size_t misses = 0;      ///< cold misses with golden advice disabled
  std::size_t inserts = 0;     ///< records that entered an entry
  std::size_t duplicates = 0;  ///< byte-identical records dropped on insert
  std::size_t evictions = 0;   ///< records dropped by the top-k bound
  std::size_t rejected = 0;    ///< failed/timeless records refused on insert,
                               ///< plus candidates dropped during rebuild
  /// Inserts that displaced an entry's previous best record: the old answer
  /// for that (network, task, hw) key is retired and the next query serves
  /// the new best.
  std::size_t invalidations = 0;
  /// Generation changes observed: publishes (`note_publish`) plus reloads
  /// (`note_reload`).  A serving process that never republishes stays at 0.
  std::size_t refreshes = 0;
};

/// One served answer.  `schedule.sketch` points into the cache's per-task
/// sketch store and stays valid for the cache's lifetime, reloads included
/// (or until a task with the same (network, task) name but different
/// structure re-registers).
struct ServeResult {
  ServeTier tier = ServeTier::kMiss;
  Schedule schedule;       ///< sketch == nullptr only for kMiss
  double est_time_ms = 0;  ///< logged time (L1) / scaled estimate (L2) / 0 (L3)
  double score = 0;        ///< L2 match score (1.0 for L1, 0 for L3/miss)
  /// The winning source record, verbatim as stored (L1/L2 only): for L1 the
  /// served schedule rebuilds exactly from it, which is what the CI
  /// round-trip gate bit-compares against the tuning log.
  TuningRecord record;
  /// `record_to_json(record)`, copied from the bytes the cache stored at
  /// insert, so a reply never re-serializes (empty for L3/miss).
  std::string record_json;
};

/// Three-tier schedule-knowledge cache over the record-log/experience
/// subsystems — the AMOS `SubScheduler` hierarchy (L1 exact memory, L2
/// cost-model knowledge, L3 golden advice) rebuilt on HARL's durable
/// records:
///
///   - **L1** maps (network, task, hardware fingerprint) to the top-k best
///     records seen for that exact task; a repeat query rebuilds the best
///     schedule in O(1) map lookups without touching a simulator.
///   - **L2** answers structural near-misses: candidate records from sibling
///     entries are scored `hw_sim * extent_sim` (the `transfer_history_best`
///     formula, structure-signature gated), the best few are re-fit to the
///     query extents (`adapt_record_schedule`), and a pretrained GBDT — when
///     `set_model` was called — re-ranks the adapted survivors.
///   - **L3** serves `golden_advice_schedule`, a deterministic heuristic
///     default, so even a stone-cold task gets a valid runnable schedule
///     (or reports `kMiss` when `golden_advice` is off, signalling the
///     caller to enqueue a real tuning run).
///
/// Determinism contract: the cache contents — and the serialized bytes — are
/// a pure function of the record *set* inserted (entry order is canonical,
/// duplicates are dropped, eviction follows the total per-entry order), and
/// every serve decision breaks ties on serialized record bytes, never on
/// insertion order.  Thread-safe: one internal mutex guards insert/serve/
/// serialize, so a fleet's updater callbacks and a server's query threads
/// can share one instance.
class KnowledgeCache {
 public:
  explicit KnowledgeCache(KnowledgeCacheOptions opts = {});

  const KnowledgeCacheOptions& options() const { return opts_; }

  /// Pretrained cost model for L2 re-ranking (e.g. a `harl_harvest harvest`
  /// output).  Optional: without it L2 picks the best-scored valid candidate.
  void set_model(std::shared_ptr<const Gbdt> model);
  std::shared_ptr<const Gbdt> model() const;

  /// Fold one record in.  Returns true when the record entered its entry
  /// (false: non-positive time, byte-identical duplicate, or evicted
  /// immediately because the entry is full of better records).  When
  /// `displaced_best` is non-null it is set to true iff the record became
  /// the new best of a previously non-empty entry — i.e. the cached answer
  /// for that key was just invalidated and should be republished before the
  /// next query can serve it stale.
  bool insert(const TuningRecord& rec, bool* displaced_best = nullptr);

  /// Fold every well-formed record of a JSONL tuning log (missing file = 0,
  /// matching `read_records`).  Returns the records that entered the cache.
  std::size_t insert_log(const std::string& path);
  /// The same for the rest of an open reader (a log's tail, say).  Malformed
  /// lines get one warning, at their absolute line numbers.
  std::size_t insert_log(RecordReader& reader);

  /// Answer one query: the best-known schedule for `task` on `hw`.
  /// `network` is the task's provenance (the same (network, task) pair
  /// records carry), which distinguishes same-named tasks of different
  /// batch variants.
  ServeResult serve(const std::string& network, const Subgraph& task,
                    const HardwareConfig& hw);

  std::size_t num_entries() const;
  std::size_t num_records() const;

  ServeStats stats() const;
  void reset_stats();

  /// The cache generation: the content fingerprint stamped at the last
  /// publish/reload, 0 until one happens.  Deliberately *not* part of the
  /// serialized cache (contents stay a pure function of the record set);
  /// it identifies which published snapshot a serving process answers from,
  /// so replicas and the primary can be compared generation-for-generation.
  std::uint64_t generation() const;

  /// Record that the cache was just published as generation `fp`
  /// (`cache_fingerprint` of the published bytes).  Bumps
  /// `ServeStats::refreshes`.
  void note_publish(std::uint64_t fp);

  /// Record that this cache was just (re)loaded from a published file of
  /// generation `fp`.  Bumps `ServeStats::refreshes`.
  void note_reload(std::uint64_t fp);

 private:
  friend std::string cache_to_json(const KnowledgeCache& cache);
  friend bool cache_from_json(const std::string& text, KnowledgeCache* out,
                              std::string* error);

  struct Key {
    std::string network;
    std::string task;
    std::uint64_t hw_fp = 0;
    bool operator<(const Key& o) const {
      if (network != o.network) return network < o.network;
      if (task != o.task) return task < o.task;
      return hw_fp < o.hw_fp;
    }
  };

  /// Records best-first under the total order (time_ms asc, serialized asc);
  /// `serialized[i]` is `record_to_json(records[i])`, cached because it is
  /// both the dedup identity and the tie-break.
  struct Entry {
    std::vector<TuningRecord> records;
    std::vector<std::string> serialized;
  };

  /// Per-task sketch store: serving needs sketches to rebuild schedules, and
  /// regenerating them per query would swamp the O(1) L1 budget.  The graph
  /// is copied so sketches never dangle into caller-owned subgraphs.
  struct TaskContext {
    Subgraph graph;
    std::vector<Sketch> sketches;
  };

  bool insert_locked(const TuningRecord& rec, std::string serialized,
                     bool* displaced_best = nullptr);
  const TaskContext& context_locked(const std::string& network,
                                    const Subgraph& task);
  ServeResult serve_l2_locked(const Key& query_key, const Subgraph& task,
                              const HardwareConfig& hw,
                              const TaskContext& ctx);

  mutable std::mutex mu_;
  KnowledgeCacheOptions opts_;
  std::map<Key, Entry> entries_;
  std::map<std::pair<std::string, std::string>, std::unique_ptr<TaskContext>>
      contexts_;
  std::shared_ptr<const Gbdt> model_;
  ServeStats stats_;
  std::uint64_t generation_ = 0;  ///< last published/loaded fingerprint
};

/// The L3 default: a deterministic heuristic schedule of the sketch — every
/// tile vector splits its extent as evenly as the prime factorization allows
/// (the most general tiling), no unrolling, root compute-at.  A pure function
/// of the sketch (fixed internal seed), so two cold servers give the same
/// golden advice.
Schedule golden_advice_schedule(const Sketch& sketch, int num_unroll_options);

/// Serialize the cache to one JSON document (single line, trailing newline)
/// in the `src/io/` dialect.  Byte-stable: entries are emitted in canonical
/// key order, records in entry order with their exact `record_to_json`
/// bytes, so save -> load -> save reproduces the file and two caches built
/// from the same record set serialize identically.
std::string cache_to_json(const KnowledgeCache& cache);

/// Parse a document produced by `cache_to_json`, in one pass over the JSON
/// `Cursor`.  Returns false and fills `*error` on malformed JSON, a newer
/// version, or a malformed embedded record; `*out` is untouched on failure.
/// A duplicated member counts by its last occurrence, and a syntax error
/// anywhere is reported before any other error.  The cost model is not part
/// of the file — call `set_model` after loading.
bool cache_from_json(const std::string& text, KnowledgeCache* out,
                     std::string* error);

/// File convenience wrappers.  `save_cache` writes atomically (temp +
/// rename), so a concurrent reader never sees a torn cache, and appends a
/// CRC-32 footer line (`safe_file.hpp`); with `fsync` the publish is also
/// durable across power loss.  `load_cache` verifies and strips the footer —
/// a truncated or bit-flipped cache file is rejected with a path-prefixed
/// reason, never half-loaded.  `cache_to_json`/`cache_fingerprint` are
/// unchanged (the footer is a file-level wrapper).
bool save_cache(const KnowledgeCache& cache, const std::string& path,
                std::string* error = nullptr, bool fsync = false);
bool load_cache(const std::string& path, KnowledgeCache* out,
                std::string* error = nullptr);

/// `save_cache` + generation stamp in one step: serialize once, write
/// atomically, and on success `note_publish` the written bytes' fingerprint,
/// so `generation()` always names the snapshot a reader of `path` sees.
bool publish_cache(KnowledgeCache& cache, const std::string& path,
                   std::string* error = nullptr, bool fsync = false);

/// Stable identity of a cache's contents: FNV-1a over the canonical
/// serialization, never 0.
std::uint64_t cache_fingerprint(const KnowledgeCache& cache);

}  // namespace harl
