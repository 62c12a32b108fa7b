#pragma once

/// \file actions.hpp
/// The schedule modification actions of Table 3 (tile moves, compute-at,
/// parallel depth, unroll) and per-sketch ActionSpace enumeration.
/// Invariant: applying a legal action yields a schedule that still
/// validates.  Collaborators: Schedule, HarlSearchPolicy, RL observations.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/schedule.hpp"

namespace harl {

/// One tile-size parameter slot: a (stage, axis, level) position whose factor
/// the tiling modification can grow or shrink.  The paper calls the slot
/// count `num_iters`; head 0 numbers its actions as the paper does,
/// num_iters^2 + 1 of them (ordered pair (i, j) plus one dummy), and every
/// mask, JointAction and apply() call uses that numbering.  Only a move
/// between two slots of one (stage, axis) can ever be legal, so the PPO
/// actor scores just those actions and the dummy (the space's
/// tile_action_support()), and maps what it samples back to the paper's ids.
struct TileSlot {
  int stage = 0;
  int axis = 0;
  int level = 0;
};

/// The four modification-type heads of Table 3, in fixed order.
enum ActionHead : int {
  kHeadTile = 0,      ///< (i, j) factor move, num_iters^2 + 1 actions
  kHeadComputeAt = 1, ///< {-1, 0, +1} on the primary compute-at knob
  kHeadParallel = 2,  ///< {-1, 0, +1} on the anchor's fused parallel loops
  kHeadUnroll = 3,    ///< {-1, 0, +1} on the anchor's unroll-depth index
};
inline constexpr int kNumActionHeads = 4;
inline constexpr int kDeltaHeadSize = 3;  ///< sizes of heads 1..3

/// Joint action: one sub-action index per head.  Every head has a no-op, so
/// modification-type selection is implicit (paper Section 4.3).
using JointAction = std::array<int, kNumActionHeads>;

/// The action space of one sketch: slot layout, head sizes, legality masks,
/// action application, and the mutation/crossover primitives reused by the
/// evolutionary and simulated-annealing baselines.
class ActionSpace {
 public:
  ActionSpace(const Sketch& sketch, int num_unroll_options);

  const Sketch& sketch() const { return *sketch_; }
  int num_unroll_options() const { return num_unroll_options_; }

  const std::vector<TileSlot>& slots() const { return slots_; }
  int num_slots() const { return static_cast<int>(slots_.size()); }

  /// Head 0 size: num_slots^2 + 1 (last index = dummy action).
  int num_tile_actions() const { return num_slots() * num_slots() + 1; }
  std::array<int, kNumActionHeads> head_sizes() const;
  int dummy_tile_action() const { return num_tile_actions() - 1; }

  /// Decode a tile action index into (from, to) slot indices.
  /// Returns false for the dummy action.
  bool decode_tile_action(int action, int* from, int* to) const;

  /// mask[a] = true iff tile action `a` is applicable to `sched`: same
  /// (stage, axis) slots, a movable factor at the source.  The dummy action
  /// is always valid.
  void tile_action_mask(const Schedule& sched, std::vector<bool>* mask) const;

  /// Every tile action some schedule's mask can set, ascending: the ordered
  /// pairs of distinct slots of one (stage, axis), then the dummy.
  std::vector<int> tile_action_support() const;

  /// Apply a joint action in place.  Deltas are clamped at knob boundaries
  /// (a clamped move degenerates to the no-op, like the paper's dummy
  /// actions).  Returns true iff the schedule changed.
  bool apply(Schedule* sched, const JointAction& action) const;

  /// Apply one uniformly random *valid* single-knob modification (used by
  /// Figure 1b's uniform-selection experiment and as the evolutionary
  /// mutation operator).  Returns true iff the schedule changed.
  bool mutate(Schedule* sched, Rng& rng) const;

  /// Uniform per-stage crossover of two parent schedules of this sketch.
  Schedule crossover(const Schedule& a, const Schedule& b, Rng& rng) const;

 private:
  bool apply_tile(Schedule* sched, int action) const;
  bool apply_compute_at(Schedule* sched, int delta) const;
  bool apply_parallel(Schedule* sched, int delta) const;
  bool apply_unroll(Schedule* sched, int delta) const;
  /// True iff slots `from` and `to` are distinct slots of one (stage, axis).
  bool same_axis_pair(int from, int to) const;

  const Sketch* sketch_;
  int num_unroll_options_;
  std::vector<TileSlot> slots_;
};

}  // namespace harl
