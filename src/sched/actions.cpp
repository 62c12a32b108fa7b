#include "sched/actions.hpp"

#include <algorithm>

namespace harl {

ActionSpace::ActionSpace(const Sketch& sketch, int num_unroll_options)
    : sketch_(&sketch), num_unroll_options_(num_unroll_options) {
  const Subgraph& g = *sketch.graph;
  for (int s = 0; s < g.num_stages(); ++s) {
    const StagePlan& plan = sketch.plan(s);
    if (plan.structure != StageStructure::kTiled &&
        plan.structure != StageStructure::kSimple) {
      continue;
    }
    const TensorOp& op = g.stage(s).op;
    for (int a = 0; a < op.num_axes(); ++a) {
      int levels = levels_for_axis(plan.structure, op.axes[static_cast<std::size_t>(a)].kind);
      for (int l = 0; l < levels; ++l) slots_.push_back({s, a, l});
    }
  }
}

std::array<int, kNumActionHeads> ActionSpace::head_sizes() const {
  return {num_tile_actions(), kDeltaHeadSize, kDeltaHeadSize, kDeltaHeadSize};
}

bool ActionSpace::decode_tile_action(int action, int* from, int* to) const {
  if (action < 0 || action >= num_tile_actions() || action == dummy_tile_action()) {
    return false;
  }
  *from = action / num_slots();
  *to = action % num_slots();
  return true;
}

bool ActionSpace::same_axis_pair(int from, int to) const {
  const TileSlot& sf = slots_[static_cast<std::size_t>(from)];
  const TileSlot& st = slots_[static_cast<std::size_t>(to)];
  return to != from && st.stage == sf.stage && st.axis == sf.axis;
}

void ActionSpace::tile_action_mask(const Schedule& sched, std::vector<bool>* mask) const {
  mask->assign(static_cast<std::size_t>(num_tile_actions()), false);
  (*mask)[static_cast<std::size_t>(dummy_tile_action())] = true;
  int n = num_slots();
  for (int from = 0; from < n; ++from) {
    const TileSlot& sf = slots_[static_cast<std::size_t>(from)];
    const TileVector& tv =
        sched.stage(sf.stage).tiles[static_cast<std::size_t>(sf.axis)];
    if (tv.smallest_movable(sf.level) == 0) continue;
    for (int to = 0; to < n; ++to) {
      if (!same_axis_pair(from, to)) continue;  // cross-axis: illegal
      (*mask)[static_cast<std::size_t>(from * n + to)] = true;
    }
  }
}

std::vector<int> ActionSpace::tile_action_support() const {
  std::vector<int> support;
  int n = num_slots();
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      if (same_axis_pair(from, to)) support.push_back(from * n + to);
    }
  }
  support.push_back(dummy_tile_action());
  return support;
}

bool ActionSpace::apply_tile(Schedule* sched, int action) const {
  int from = 0;
  int to = 0;
  if (!decode_tile_action(action, &from, &to)) return false;
  const TileSlot& sf = slots_[static_cast<std::size_t>(from)];
  const TileSlot& st = slots_[static_cast<std::size_t>(to)];
  if (st.stage != sf.stage || st.axis != sf.axis) return false;
  TileVector& tv = sched->stage(sf.stage).tiles[static_cast<std::size_t>(sf.axis)];
  return tv.move_factor(sf.level, st.level);
}

bool ActionSpace::apply_compute_at(Schedule* sched, int delta) const {
  int s = sketch_->primary_compute_at_stage;
  if (s < 0 || delta == 0) return false;
  int& ca = sched->stage(s).compute_at;
  int next = std::clamp(ca + delta, 0, kComputeAtCandidates - 1);
  if (next == ca) return false;
  ca = next;
  return true;
}

bool ActionSpace::apply_parallel(Schedule* sched, int delta) const {
  if (delta == 0) return false;
  int anchor = sketch_->graph->anchor_stage();
  const StagePlan& plan = sketch_->plan(anchor);
  if (plan.structure != StageStructure::kTiled &&
      plan.structure != StageStructure::kSimple) {
    return false;
  }
  const TensorOp& op = sketch_->graph->stage(anchor).op;
  int& pd = sched->stage(anchor).parallel_depth;
  int next = std::clamp(pd + delta, 0, op.num_spatial_axes());
  if (next == pd) return false;
  pd = next;
  return true;
}

bool ActionSpace::apply_unroll(Schedule* sched, int delta) const {
  if (delta == 0) return false;
  int anchor = sketch_->graph->anchor_stage();
  const StagePlan& plan = sketch_->plan(anchor);
  if (plan.structure != StageStructure::kTiled &&
      plan.structure != StageStructure::kSimple) {
    return false;
  }
  int& ui = sched->stage(anchor).unroll_index;
  int next = std::clamp(ui + delta, 0, num_unroll_options_ - 1);
  if (next == ui) return false;
  ui = next;
  return true;
}

bool ActionSpace::apply(Schedule* sched, const JointAction& action) const {
  bool changed = false;
  changed |= apply_tile(sched, action[kHeadTile]);
  changed |= apply_compute_at(sched, action[kHeadComputeAt] - 1);
  changed |= apply_parallel(sched, action[kHeadParallel] - 1);
  changed |= apply_unroll(sched, action[kHeadUnroll] - 1);
  return changed;
}

bool ActionSpace::mutate(Schedule* sched, Rng& rng) const {
  // Knob families weighted by their presence in this sketch.
  for (int attempt = 0; attempt < 8; ++attempt) {
    int kind = rng.next_int(0, 4);
    switch (kind) {
      case 0: {  // single factor move
        if (slots_.empty()) break;
        std::vector<bool> mask;
        tile_action_mask(*sched, &mask);
        std::vector<int> valid;
        for (int a = 0; a < num_tile_actions() - 1; ++a) {
          if (mask[static_cast<std::size_t>(a)]) valid.push_back(a);
        }
        if (valid.empty()) break;
        if (apply_tile(sched, valid[rng.pick_index(valid.size())])) return true;
        break;
      }
      case 1: {  // resample one axis' full tiling
        if (slots_.empty()) break;
        const TileSlot& slot = slots_[rng.pick_index(slots_.size())];
        TileVector& tv = sched->stage(slot.stage).tiles[static_cast<std::size_t>(slot.axis)];
        TileVector fresh = random_tile(tv.product(), tv.levels(), rng);
        if (fresh.factors != tv.factors) {
          tv = fresh;
          return true;
        }
        break;
      }
      case 2:
        if (apply_compute_at(sched, rng.next_bool() ? 1 : -1)) return true;
        break;
      case 3:
        if (apply_parallel(sched, rng.next_bool() ? 1 : -1)) return true;
        break;
      case 4:
        if (apply_unroll(sched, rng.next_bool() ? 1 : -1)) return true;
        break;
      default:
        break;
    }
  }
  return false;
}

Schedule ActionSpace::crossover(const Schedule& a, const Schedule& b, Rng& rng) const {
  Schedule child = a;
  for (std::size_t s = 0; s < child.stages.size(); ++s) {
    if (rng.next_bool()) child.stages[s] = b.stages[s];
  }
  return child;
}

}  // namespace harl
