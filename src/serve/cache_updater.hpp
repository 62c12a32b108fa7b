#pragma once

/// \file cache_updater.hpp
/// KnowledgeCacheUpdater: the `TuningCallback` that keeps a serving
/// `KnowledgeCache` warm while a fleet tunes — every committed measurement
/// folds in immediately, and the cache file republishes atomically every few
/// rounds.  Invariant: a new task best is servable (L1) within one callback
/// delivery, and the published file is never torn.  Collaborators:
/// KnowledgeCache, make_tuning_record, AsyncCallbackBus, FleetTuner.

#include <cstddef>
#include <mutex>
#include <string>

#include "io/callbacks.hpp"
#include "serve/knowledge_cache.hpp"

namespace harl {

/// Knobs of one `KnowledgeCacheUpdater`.
struct CacheUpdateOptions {
  /// Republish the cache file after this many observed rounds (across every
  /// session the updater is registered on).  <= 0 disables periodic saves;
  /// `save_now()` still works.
  int save_period_rounds = 8;
  /// File the cache is atomically republished to (`save_cache`: write-temp +
  /// rename).  Empty = in-memory only.
  std::string save_path;
  /// fsync each republished cache file (see `save_cache`), trading publish
  /// latency for durability across power loss.
  bool fsync_publish = false;
};

/// The serving half of the in-run refresh loop: where `ExperienceRefresher`
/// keeps the *cost model* current, this callback keeps the *answer cache*
/// current.  Registered on one session — or shared across a fleet, the cache
/// and this class are both thread-safe — it folds every committed
/// measurement into the `KnowledgeCache` as it happens, so a repeat query
/// against the shared cache becomes an L1 hit within one callback delivery
/// of the measurement, and periodically republishes the cache file for
/// sibling serving processes.  A fold that displaces an entry's best record
/// (KnowledgeCache::insert reports the displacement) republishes at once
/// instead of waiting out the periodic cadence — the invalidation path: the
/// stale published best is retired before the next file reader can serve
/// it.  In-process queries are always fresh either way (the cache mutex
/// orders insert before serve).  Register on an `AsyncCallbackBus` to keep
/// file writes off the tuning hot loop.
class KnowledgeCacheUpdater : public TuningCallback {
 public:
  /// `cache` is not owned and must outlive the updater.
  KnowledgeCacheUpdater(KnowledgeCache* cache, CacheUpdateOptions opts = {});

  void on_records(const TaskScheduler& scheduler, int task,
                  const std::vector<MeasuredRecord>& records) override;
  void on_round(const TaskScheduler& scheduler, const RoundEvent& round) override;

  /// Publish the cache file now (end-of-run publish, tests).  Returns false
  /// when `save_path` is empty or the write failed (counted + warned).
  bool save_now();

  std::size_t records_folded() const;  ///< measurements offered to the cache
  std::size_t saves() const;           ///< successful file publishes
  std::size_t save_errors() const;     ///< failed file publishes (warned)
  std::size_t best_publishes() const;  ///< immediate publishes after a
                                       ///< best-displacing fold

 private:
  KnowledgeCache* const cache_;
  const CacheUpdateOptions opts_;

  mutable std::mutex mu_;
  int rounds_since_save_ = 0;
  std::size_t records_folded_ = 0;
  std::size_t saves_ = 0;
  std::size_t save_errors_ = 0;
  std::size_t best_publishes_ = 0;
};

}  // namespace harl
