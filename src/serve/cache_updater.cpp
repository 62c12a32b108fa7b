#include "serve/cache_updater.hpp"

#include "io/record_logger.hpp"
#include "util/logging.hpp"

namespace harl {

KnowledgeCacheUpdater::KnowledgeCacheUpdater(KnowledgeCache* cache,
                                             CacheUpdateOptions opts)
    : cache_(cache), opts_(std::move(opts)) {}

void KnowledgeCacheUpdater::on_records(const TaskScheduler& scheduler, int task,
                                       const std::vector<MeasuredRecord>& records) {
  bool retired_a_best = false;
  for (const MeasuredRecord& mr : records) {
    bool displaced = false;
    cache_->insert(make_tuning_record(scheduler, task, mr), &displaced);
    retired_a_best = retired_a_best || displaced;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    records_folded_ += records.size();
  }
  // Mid-flight invalidation: a fold just beat a cached best, so any published
  // copy of this cache is stale.  Republish before waiting out the periodic
  // cadence so no file reader can serve the retired entry.
  if (retired_a_best && !opts_.save_path.empty()) {
    if (save_now()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++best_publishes_;
    }
  }
}

void KnowledgeCacheUpdater::on_round(const TaskScheduler& scheduler,
                                     const RoundEvent& round) {
  (void)scheduler, (void)round;
  if (opts_.save_period_rounds <= 0 || opts_.save_path.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (++rounds_since_save_ < opts_.save_period_rounds) return;
    rounds_since_save_ = 0;
  }
  save_now();
}

bool KnowledgeCacheUpdater::save_now() {
  if (opts_.save_path.empty()) return false;
  std::string error;
  // publish_cache serializes under the cache's own lock, publishes with
  // write-temp + rename (concurrent folds and readers are both safe), and
  // stamps the published fingerprint as the cache's generation.
  bool ok =
      publish_cache(*cache_, opts_.save_path, &error, opts_.fsync_publish);
  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    ++saves_;
  } else {
    ++save_errors_;
    HARL_LOG_WARN("knowledge-cache publish failed: %s", error.c_str());
  }
  return ok;
}

std::size_t KnowledgeCacheUpdater::records_folded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_folded_;
}

std::size_t KnowledgeCacheUpdater::saves() const {
  std::lock_guard<std::mutex> lock(mu_);
  return saves_;
}

std::size_t KnowledgeCacheUpdater::save_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return save_errors_;
}

std::size_t KnowledgeCacheUpdater::best_publishes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return best_publishes_;
}

}  // namespace harl
