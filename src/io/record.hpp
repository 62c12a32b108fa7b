#pragma once

/// \file record.hpp
/// TuningRecord: one durable measurement with full provenance — the
/// library's interchange format (see docs/RECORD_SCHEMA.md).  Invariant:
/// serialization is byte-stable and `schedule_from_record` rebuilds the
/// exact schedule.  Collaborators: record_io, resume, experience, compact.

#include <cstdint>
#include <string>
#include <vector>

#include "hwsim/hardware_config.hpp"
#include "sched/schedule.hpp"
#include "sched/sketch.hpp"

namespace harl {

namespace json {
class Cursor;
}  // namespace json

/// Current TuningRecord schema version.  Bump on incompatible layout changes;
/// the reader skips records from *newer* versions instead of misparsing them.
inline constexpr int kRecordSchemaVersion = 1;

/// The low-level decisions of one stage, the serializable mirror of
/// `StageSchedule` (together with the sketch id they reconstruct a
/// `Schedule` exactly).
struct StageDecision {
  std::vector<std::vector<std::int64_t>> tiles;  ///< factors per axis
  int compute_at = 0;
  int parallel_depth = 1;
  int unroll_index = 0;

  bool operator==(const StageDecision& o) const {
    return tiles == o.tiles && compute_at == o.compute_at &&
           parallel_depth == o.parallel_depth && unroll_index == o.unroll_index;
  }
};

/// One durable line of a tuning log: a measured schedule with full
/// provenance.  This is the library's interchange format — the analogue of
/// Ansor's `MeasureInput`/`MeasureResult` log rows — and carries everything
/// needed to (a) attribute the measurement (network/subgraph/hardware/policy/
/// seed), (b) rebuild the `Schedule` (sketch id + per-stage decisions), and
/// (c) replay trial accounting exactly (trial index + cached flag).
struct TuningRecord {
  int version = kRecordSchemaVersion;
  std::string network;        ///< Network::name
  std::string task;           ///< Subgraph::name
  int task_index = -1;        ///< subgraph position within the network
  std::uint64_t hardware_fp = 0;  ///< HardwareConfig::fingerprint()
  std::string policy;         ///< registry name of the search policy
  std::uint64_t seed = 0;     ///< SearchOptions::seed of the run
  int sketch_id = 0;          ///< Sketch::sketch_id within the task
  std::string sketch_tag;     ///< Sketch::tag (human-readable cross-check)
  std::vector<StageDecision> stages;
  double time_ms = 0;
  std::int64_t trial_index = 0;
  bool cached = false;        ///< replayed from the measure cache (no trial)
  /// Failure provenance (schema v1 additive field; empty = the measurement
  /// succeeded).  Set to the `measure_status_name` of a failed measurement
  /// ("transient", "timeout", "garbage", "quarantined" — free-form for
  /// forward compatibility).  A failed record carries `time_ms == 0` (never
  /// a fake latency) and is tolerated by every reader but excluded from
  /// resume replay, cost-model training, compaction best-k, the experience
  /// store, and knowledge-cache serving.
  std::string fail;

  // Optional transfer provenance (schema v1 additive fields; empty when the
  // record predates them).  `task_sig` is Subgraph::structure_signature() —
  // the extent-free per-stage op-kind list — and `hw_sim` is
  // HardwareConfig::similarity_vector().  Together they let a scored matcher
  // decide how well this record transfers to a *different* task or machine
  // without access to the original Subgraph/HardwareConfig objects.
  std::string task_sig;
  std::vector<double> hw_sim;
  /// Fingerprint of the pretrained experience model active during the run
  /// (0 = cold).  Part of the run identity `resume_session` matches on: a
  /// warm session proposes different schedules than a cold one with the
  /// same seed, so replaying across the boundary would attach logged times
  /// to the wrong schedules.
  std::uint64_t experience_fp = 0;
  /// Fingerprint of the partial-schedule value model guiding the run (0 =
  /// unguided).  Part of the run identity for the same reason as
  /// `experience_fp`: value-guided beam pruning changes the schedule stream,
  /// so guided and unguided logs must never cross-replay.
  std::uint64_t value_fp = 0;

  bool operator==(const TuningRecord& o) const;
};

/// Copy a schedule's low-level decisions into serializable form.
std::vector<StageDecision> decisions_from_schedule(const Schedule& sched);

/// Serialize to one compact JSON line (no trailing newline).  Field order and
/// number formatting are fixed, so equal records serialize to equal bytes.
std::string record_to_json(const TuningRecord& rec);

/// Parse one JSONL line.  Returns false and fills `*error` on malformed JSON
/// (with line/column), wrong field types, or missing required fields; unknown
/// fields are ignored (forward compatibility) but must still be valid JSON.
/// A duplicated member counts by its last occurrence, and a syntax error
/// anywhere in the line is reported before any field error.  A record with
/// `version > kRecordSchemaVersion` fails with an "incompatible version"
/// message so callers can count it as skipped rather than corrupt.  Decodes
/// in one pass straight into `*rec`, reusing its string and vector capacity;
/// on failure `*rec` holds unspecified (valid) contents.
bool record_from_json(const std::string& line, TuningRecord* rec,
                      std::string* error);

/// The body of `record_from_json`, on a cursor positioned at any value (a
/// record embedded in a larger document, say).  Returns false when the
/// cursor hits a syntax error; the cursor's `ParseError` then holds it.
/// Otherwise the value is consumed and `*error` holds the field-level
/// verdict, worded as `record_from_json` words it: empty when `*rec` is a
/// well-formed record.
bool read_record(json::Cursor& c, TuningRecord* rec, std::string* error);

/// Rebuild the `Schedule` a record describes against the task's sketch set.
/// Returns a schedule with `sketch == nullptr` and fills `*error` when the
/// sketch id/tag is unknown or the decisions fail `validate_schedule`.
Schedule schedule_from_record(const TuningRecord& rec,
                              const std::vector<Sketch>& sketches,
                              int num_unroll_options, std::string* error);

}  // namespace harl
