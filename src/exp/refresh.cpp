#include "exp/refresh.hpp"

#include <cstdio>
#include <utility>

#include "cost/gbdt_io.hpp"
#include "features/feature_extractor.hpp"
#include "io/record_logger.hpp"
#include "search/task_scheduler.hpp"
#include "util/logging.hpp"

namespace harl {

namespace {

/// Trees each refit boosts onto the current model (`Gbdt::fit_more`).
constexpr int kTreesPerRefresh = 8;

/// Write `model` to `path` atomically: `save_gbdt` publishes via a temp file
/// renamed over the target, so a concurrent reader (a sibling session
/// loading `SearchOptions::experience_model`) sees either the previous
/// complete model or the new complete model, never a torn file.  With
/// `fsync` the publish is also durable across power loss.
bool publish_atomic(const Gbdt& model, const std::string& path, bool fsync,
                    std::string* error) {
  return save_gbdt(model, path, error, fsync);
}

}  // namespace

ExperienceRefresher::ExperienceRefresher(HardwareConfig hw, RefreshOptions opts,
                                         TaskResolver resolver)
    : hw_(std::move(hw)), opts_(std::move(opts)), resolver_(std::move(resolver)) {}

void ExperienceRefresher::set_base_model(std::shared_ptr<const Gbdt> base,
                                         std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(base);
  current_fp_ = 0;
  if (current_ != nullptr && current_->trained()) {
    current_fp_ = fingerprint != 0 ? fingerprint : gbdt_fingerprint(*current_);
  }
}

void ExperienceRefresher::on_records(const TaskScheduler& scheduler, int task,
                                     const std::vector<MeasuredRecord>& records) {
  if (records.empty()) return;
  // Durable form first (reads only run-constant scheduler state, so this is
  // safe on an async dispatcher thread), then fold under the lock.
  std::vector<TuningRecord> batch;
  batch.reserve(records.size());
  for (const MeasuredRecord& rec : records) {
    batch.push_back(make_tuning_record(scheduler, task, rec));
  }
  std::lock_guard<std::mutex> lock(mu_);
  store_.add_records(batch);
  records_folded_ += batch.size();
}

void ExperienceRefresher::on_round(const TaskScheduler& scheduler,
                                   const RoundEvent& round) {
  (void)scheduler, (void)round;
  if (opts_.period_rounds <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (++rounds_since_refresh_ >= opts_.period_rounds) refresh_locked();
}

bool ExperienceRefresher::refresh_now() {
  std::lock_guard<std::mutex> lock(mu_);
  return refresh_locked();
}

bool ExperienceRefresher::refresh_locked() {
  rounds_since_refresh_ = 0;
  HarvestStats stats;
  ExperienceDataset ds = store_.build_dataset(hw_, resolver_, &stats);
  last_rows_ = ds.rows;
  // Gbdt::fit needs a handful of rows to split on; below the floor a swap
  // would trade a working prior for noise.
  if (ds.rows < opts_.min_rows || ds.rows < 4) return false;

  // Continue the current stream: copy (the published model stays immutable
  // for its readers), boost a few more trees on the refreshed dataset.  The
  // copied RNG words continue the exact boosting stream `fit`/`fit_more`
  // left off at, so the refresh sequence is deterministic end to end.
  Gbdt model = current_ != nullptr ? Gbdt(*current_) : Gbdt(opts_.gbdt);
  model.fit_more(ds.features, FeatureExtractor::kNumFeatures, ds.labels,
                 kTreesPerRefresh);
  if (!model.trained()) return false;
  std::uint64_t fp = gbdt_fingerprint(model);

  if (!opts_.publish_path.empty()) {
    auto publish = [&](const std::string& path) {
      std::string error;
      if (!publish_atomic(model, path, opts_.fsync_publish, &error)) {
        ++publish_errors_;
        HARL_LOG_WARN("experience refresh: publish failed: %s", error.c_str());
        return false;
      }
      return true;
    };
    publish(opts_.publish_path);
    if (opts_.snapshot_history) {
      publish(opts_.publish_path + "." + std::to_string(fp));
    }
  }

  current_ = std::make_shared<const Gbdt>(std::move(model));
  current_fp_ = fp;
  ++refreshes_;
  return true;
}

std::shared_ptr<const Gbdt> ExperienceRefresher::current_model() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::uint64_t ExperienceRefresher::current_fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_fp_;
}

ExperienceRefresher::Published ExperienceRefresher::published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {current_, current_fp_};
}

std::size_t ExperienceRefresher::refreshes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return refreshes_;
}

std::size_t ExperienceRefresher::records_folded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_folded_;
}

std::size_t ExperienceRefresher::last_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_rows_;
}

std::size_t ExperienceRefresher::publish_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return publish_errors_;
}

}  // namespace harl
