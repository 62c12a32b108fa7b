#pragma once

/// \file experience.hpp
/// ExperienceStore: fold record logs into one offline training set and
/// pretrain a GBDT (the Steiner-style value-function prior).  Invariant: the
/// dataset — and the model bytes — is a pure function of the record *set*
/// (canonical order + dedup), independent of add order or file splits.
/// Collaborators: RecordReader, FeatureExtractor, Gbdt, TaskResolver.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cost/gbdt.hpp"
#include "hwsim/hardware_config.hpp"
#include "io/record.hpp"
#include "io/record_io.hpp"
#include "ir/subgraph.hpp"

namespace harl {

class ThreadPool;

/// Maps a record's (network name, task name) provenance back to the subgraph
/// it was measured on, so the harvester can regenerate sketches and
/// reconstruct schedules.  Return nullptr for unknown tasks (they are
/// counted and skipped, not fatal).
using TaskResolver = std::function<const Subgraph*(const std::string& network,
                                                   const std::string& task)>;

/// The memo behind `make_builtin_resolver`: parses the `make_network`-style
/// name "<base>_b<batch>" (e.g. "bert_b1", "resnet50_b4"; only as
/// `make_network` spells it, so "bert_b0" and "bert_b01" are unknown),
/// instantiates the network once per name, and looks the task up by
/// subgraph name.
/// Returned pointers stay valid for the memo's lifetime.  Only names that
/// build a shipped network are kept: a name that resolves to nothing is
/// parsed again on every call, so a stream of unknown names (client input,
/// in the daemon) costs no memory.  Not thread-safe.
class BuiltinNetworks {
 public:
  const Subgraph* resolve(const std::string& network, const std::string& task);
  /// Networks held.
  std::size_t size() const { return networks_.size(); }

 private:
  std::unordered_map<std::string, std::unique_ptr<Network>> networks_;
};

/// Resolver for the shipped workload inventory: one `BuiltinNetworks` memo
/// shared by every copy of the returned function.  Custom networks need a
/// custom resolver (see `ExperienceStore::build_dataset`).
TaskResolver make_builtin_resolver();

/// Outcome of one harvest (`ExperienceStore::build_dataset`).
struct HarvestStats {
  std::size_t logs_read = 0;         ///< files opened by add_log
  std::size_t lines_skipped = 0;     ///< malformed/incompatible input lines
  std::size_t records = 0;           ///< records folded in (before dedup)
  std::size_t duplicates = 0;        ///< identical records dropped (overlapping logs)
  std::size_t unknown_tasks = 0;     ///< records the resolver could not place
  std::size_t invalid_schedules = 0; ///< records whose schedule failed to rebuild
  std::size_t groups = 0;            ///< distinct (network, task, hardware) groups
  std::size_t rows = 0;              ///< training rows produced
};

/// One flat offline training set: schedule features re-extracted under the
/// *target* hardware and normalized-throughput labels (group best / time,
/// the same label `XgbCostModel` trains on).
struct ExperienceDataset {
  std::vector<double> features;  ///< rows x num_features
  std::vector<double> labels;
  std::size_t rows = 0;
  /// Row width: FeatureExtractor::kNumFeatures for the experience set,
  /// kNumPrefixFeatures for the value set (`build_value_dataset`).
  int num_features = 0;
};

/// Folds many tuning logs into one reusable training set — the offline half
/// of the cost model (the Steiner et al. value-function direction): a fleet
/// that logs every measurement can pre-train a GBDT overnight and hand every
/// new `TuningSession` a warm model instead of a cold one.
///
/// Determinism contract: the harvested dataset (and therefore the trained
/// model bytes) is a pure function of the *set* of well-formed records added
/// — records are canonically ordered and exact duplicates dropped before
/// featurization, so the same logs added in any order, split across files,
/// or overlapping with their own compacted form produce bit-identical
/// models.
class ExperienceStore {
 public:
  /// Streams one JSONL log in tolerantly (missing file = 0 records, not an
  /// error, matching `read_records`).  Returns the records added.  The
  /// overload surfaces the skipped lines (position + reason) so CLI callers
  /// can report them instead of silently counting.
  std::size_t add_log(const std::string& path);
  std::size_t add_log(const std::string& path,
                      std::vector<RecordReadError>* errors);

  void add_records(const std::vector<TuningRecord>& records);

  std::size_t size() const { return records_.size(); }
  const std::vector<TuningRecord>& records() const { return records_; }

  /// Build the offline training set for `hw`.  Schedules are reconstructed
  /// against the resolver's subgraphs (records that fail to resolve or
  /// validate are counted and skipped), features extracted in bulk with
  /// `extract_matrix_into` (optionally on `pool`; the fill is deterministic
  /// either way), and labels normalized per (network, task, hardware
  /// fingerprint) group.
  ExperienceDataset build_dataset(const HardwareConfig& hw,
                                  const TaskResolver& resolver,
                                  HarvestStats* stats = nullptr,
                                  ThreadPool* pool = nullptr) const;

  /// Convenience: `build_dataset` + a full `Gbdt::fit`.  The returned model
  /// is untrained when the harvest produced fewer than 4 rows.
  Gbdt pretrain(const HardwareConfig& hw, const GbdtConfig& cfg,
                const TaskResolver& resolver, HarvestStats* stats = nullptr,
                ThreadPool* pool = nullptr) const;

  /// Build the *value-function* training set: for every record and every
  /// prefix depth d in [1, num_stages], one row per distinct decided prefix
  /// (`prefix_fingerprint`) labeled with the best normalized score (group
  /// best / time) any record sharing that prefix finally reached — i.e. "the
  /// best final time reachable from this partial schedule", Steiner et al.'s
  /// value target.  Rows are kNumPrefixFeatures wide and inherit
  /// `build_dataset`'s determinism contract: canonical record order + prefix
  /// dedup make the set (and the trained model bytes) a pure function of the
  /// record set.
  ExperienceDataset build_value_dataset(const HardwareConfig& hw,
                                        const TaskResolver& resolver,
                                        HarvestStats* stats = nullptr) const;

  /// `build_value_dataset` + a full `Gbdt::fit` over prefix features.  The
  /// returned model is untrained below 4 rows; its `num_features()` is
  /// kNumPrefixFeatures, so it can never be confused with an experience
  /// model at load time.
  Gbdt pretrain_value(const HardwareConfig& hw, const GbdtConfig& cfg,
                      const TaskResolver& resolver,
                      HarvestStats* stats = nullptr) const;

 private:
  std::vector<TuningRecord> records_;
  std::size_t logs_read_ = 0;
  std::size_t lines_skipped_ = 0;
};

}  // namespace harl
