#pragma once

/// \file refresh.hpp
/// Continuous in-run experience refresh: a `TuningCallback` that folds each
/// finished round into a shared `ExperienceStore`, periodically `fit_more`s
/// the pretrained GBDT, and atomically republishes the model file +
/// fingerprint — closing the loop from "harvest tonight, warm tomorrow" to
/// "warm within one run".  Invariant: the refreshed model bytes are a
/// deterministic function of the observed event sequence (canonical record
/// set + the boosting RNG stream the serialized words continue).
/// Collaborators: ExperienceStore, gbdt_io, AsyncCallbackBus, FleetTuner.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cost/gbdt.hpp"
#include "exp/experience.hpp"
#include "io/callbacks.hpp"

namespace harl {

/// Knobs of one `ExperienceRefresher`.
struct RefreshOptions {
  /// Refit + republish after this many observed rounds (across every
  /// session the refresher is registered on).  <= 0 disables periodic
  /// refreshes; `refresh_now()` still works.
  int period_rounds = 8;
  /// Skip the refit while the harvested dataset has fewer rows than this
  /// (too little signal to be worth a model swap).
  std::size_t min_rows = 8;
  /// File the refreshed model is atomically republished to (write-temp +
  /// rename, so readers never see a torn file).  Empty = in-memory only.
  std::string publish_path;
  /// Also keep `publish_path + "." + fingerprint` per refresh, so a log
  /// segment stamped with an older `xm` can still be verified/resumed
  /// against the exact model that produced it after later republishes.
  bool snapshot_history = false;
  /// fsync each republished model (and its directory entry) before the
  /// rename lands, making the publish durable across power loss.  Off by
  /// default: mid-run refreshes are reproducible from the logs, so most
  /// callers prefer the publish latency.
  bool fsync_publish = false;
  /// Learner shape when starting cold (no base model).
  GbdtConfig gbdt;
};

/// The continuous-refresh half of the experience subsystem (the online
/// value-function loop of Steiner et al.): registered as a callback — one
/// instance may be shared across every session of a fleet — it accumulates
/// the fleet's measurements as they happen and keeps a warm cost model
/// current *during* the run instead of overnight.
///
/// Each refresh rebuilds the canonical dataset from all records folded so
/// far (order-independent, duplicates dropped — see `ExperienceStore`),
/// continues boosting the current model with `fit_more` (whose serialized
/// RNG words make the tree stream deterministic), computes the new
/// `gbdt_fingerprint`, and republishes the model file atomically.  Sessions
/// constructed *after* a republish (the next fleet workload, the next
/// `tune_network` invocation, a sibling process watching the file) start
/// from the refreshed model; their records stamp the new `xm` fingerprint,
/// so resume and `verify_resume` keep pre- and post-republish record
/// segments strictly apart.
///
/// A refresher does NOT hot-swap the model of sessions already running:
/// a session's `xm` is fixed at construction, which is what keeps its
/// schedule stream — and therefore crash-resume — deterministic.
///
/// Each refit boosts 8 more trees onto the current model (`Gbdt::fit_more`);
/// the first refit of a cold refresher fits a full `gbdt.num_trees` model
/// instead.
///
/// Thread-safe (one internal mutex); a refresh blocks other fold calls for
/// its duration, so register the refresher on an `AsyncCallbackBus` (as
/// `FleetTuner` and `tune_network --async-callbacks` do) to keep refits off
/// every tuning hot loop.
class ExperienceRefresher : public TuningCallback {
 public:
  ExperienceRefresher(HardwareConfig hw, RefreshOptions opts,
                      TaskResolver resolver = make_builtin_resolver());

  /// Start refreshing from `base` (e.g. the fleet's pretrained model)
  /// instead of cold.  `fingerprint` 0 = compute it here.  Call before the
  /// first event; the base also becomes `current_model()` immediately.
  void set_base_model(std::shared_ptr<const Gbdt> base,
                      std::uint64_t fingerprint = 0);

  void on_records(const TaskScheduler& scheduler, int task,
                  const std::vector<MeasuredRecord>& records) override;
  void on_round(const TaskScheduler& scheduler, const RoundEvent& round) override;

  /// Force a refit + republish now (end-of-run publish, tests).  Returns
  /// false when the dataset is still below `min_rows` (nothing published).
  bool refresh_now();

  /// The latest refreshed model (nullptr before the first refresh of a
  /// cold refresher) and its fingerprint (0 likewise).  What a sibling
  /// session constructed now would start from.
  std::shared_ptr<const Gbdt> current_model() const;
  std::uint64_t current_fingerprint() const;

  /// One consistent (model, fingerprint) pair — use this when both are
  /// needed, so a republish between two getters cannot mismatch them.
  struct Published {
    std::shared_ptr<const Gbdt> model;
    std::uint64_t fingerprint = 0;
  };
  Published published() const;

  std::size_t refreshes() const;       ///< refits that produced a model
  std::size_t records_folded() const;  ///< records added to the store
  std::size_t last_rows() const;       ///< dataset rows at the last refit try
  std::size_t publish_errors() const;  ///< failed file publishes (warned)

 private:
  bool refresh_locked();

  const HardwareConfig hw_;  ///< featurization target of every refit
  const RefreshOptions opts_;
  const TaskResolver resolver_;

  mutable std::mutex mu_;
  ExperienceStore store_;
  std::shared_ptr<const Gbdt> current_;
  std::uint64_t current_fp_ = 0;
  int rounds_since_refresh_ = 0;
  std::size_t refreshes_ = 0;
  std::size_t records_folded_ = 0;
  std::size_t last_rows_ = 0;
  std::size_t publish_errors_ = 0;
};

}  // namespace harl
