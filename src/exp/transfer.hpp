#pragma once

/// \file transfer.hpp
/// Scored cross-task / cross-hardware history transfer
/// (`transfer_history_best`): exact matches commit verbatim, structural
/// siblings are re-tiled to the new extents and *seed* the search with a
/// pessimistic estimate.  Invariant: only exact matches may claim a task
/// best; estimates never stand as measurements.
/// Collaborators: read_records, TaskState::seed_estimate.

#include <string>
#include <vector>

#include "io/record.hpp"
#include "sched/sketch.hpp"

namespace harl {

class TuningSession;

/// Knobs of the scored history matcher (`transfer_history_best`).
struct TransferOptions {
  /// Allow non-exact matches (structural/sibling-hardware transfer).  With
  /// this off the matcher reduces to the original exact
  /// (task name, hardware fingerprint) rule.
  bool structural = true;
  /// Structural candidates scoring below this are dropped.  The score is
  /// hardware similarity x extent similarity, both in (0, 1]; the default
  /// admits e.g. a 2x batch change on a half-size sibling CPU but rejects
  /// wildly different machines or shapes.
  double min_score = 0.05;
  /// Pessimism multiplier on the estimated time of a non-exact match
  /// (estimates seed the best pool and the improvement gate; overestimating
  /// keeps their ranking honest).
  double time_penalty = 1.25;
};

struct TransferStats {
  int applied = 0;       ///< tasks that received a warm-start schedule
  int exact = 0;         ///< ... via an exact (task, hardware) match
  int transferred = 0;   ///< ... via a scored structural match
  int rejected = 0;      ///< candidates dropped during adaptation/validation
};

/// Scored cross-task / cross-hardware history transfer — Ansor's
/// `apply_history_best`, generalised beyond exact matching.
///
/// For every task of the session, candidate records are scored:
///   - exact matches (same subgraph name AND same hardware fingerprint) rank
///     first and commit their logged time verbatim, preserving the original
///     behavior;
///   - structural matches require the same structure signature (per-stage op
///     kinds; records without one fall back to shape checks during
///     adaptation) and score `hw_sim * extent_sim`, where `hw_sim` compares
///     `HardwareConfig::similarity_vector()`s (1.0 for the same fingerprint;
///     records without a vector cannot cross hardware) and `extent_sim` is
///     exp(-mean |ln ratio|) over the anchor-stage extents.  Their tile
///     decisions are re-fit to the new extents (`adapt_tile_factors`) and
///     their time estimate is the logged time scaled by the anchor
///     iteration-space ratio and relative peak flops, times `time_penalty`.
///
/// The best-ranked candidate that survives schedule validation and improves
/// on the task's current best is applied (no trials consumed in either
/// case), but exact and structural matches are applied differently:
///   - an exact match's *real* logged time is committed as a cached
///     measurement (best/curve/cost model update, as before);
///   - a structural match's time is only an estimate, so it *seeds* the
///     search (`TaskState::seed_estimate`: best pool + cost model) without
///     claiming a task best or blocking re-measurement — a fabricated best
///     could stand as a phantom latency the simulator never produced.
/// Deterministic: ranking ties break on record order.
TransferStats transfer_history_best(TuningSession& session,
                                    const std::vector<TuningRecord>& records,
                                    const TransferOptions& opts = {});

/// Re-fit one logged tiling onto a new extent: keeps the level count and
/// approximates the source's per-level log-size proportions with the target
/// extent's prime factors (greedy largest-prime-first assignment, ties to
/// the innermost level).  The product of the result is exactly
/// `target_extent`.  When the source product already equals the target the
/// factors are copied verbatim.
std::vector<std::int64_t> adapt_tile_factors(
    const std::vector<std::int64_t>& source_factors, std::int64_t target_extent);

/// Anchor-stage extents a record carries implicitly: the per-axis tile
/// products of its `anchor_stage`-position stage (tile products equal extents
/// by the TileVector invariant).  Empty when the stage index is out of range.
std::vector<std::int64_t> record_anchor_extents(const TuningRecord& rec,
                                                int anchor_stage);

/// Extent similarity of two same-length extent lists in [0, 1]:
/// exp(-mean |ln(a_i / b_i)|), i.e. 1.0 for identical shapes, decaying with
/// the geometric distance per axis.  Mismatched lengths or non-positive
/// extents score 0 (structurally incomparable).
double extent_similarity(const std::vector<std::int64_t>& a,
                         const std::vector<std::int64_t>& b);

/// Rebuild a record's schedule against a *different* task's sketch set,
/// re-fitting every tile vector to the target extents and clamping the
/// scalar knobs into range.  Returns a schedule with `sketch == nullptr` and
/// fills `*error` when the structures are incompatible (stage/axis/level
/// mismatch) or validation fails.
Schedule adapt_record_schedule(const TuningRecord& rec,
                               const std::vector<Sketch>& sketches,
                               int num_unroll_options, std::string* error);

}  // namespace harl
