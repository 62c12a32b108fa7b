#include "sched/schedule.hpp"

#include <algorithm>
#include <sstream>

#include "util/fnv.hpp"

namespace harl {

int levels_for_axis(StageStructure structure, AxisKind kind) {
  switch (structure) {
    case StageStructure::kTiled:
      return tile_levels_for(kind);
    case StageStructure::kSimple:
      return kind == AxisKind::kSpatial ? 2 : 1;
    case StageStructure::kInlined:
    case StageStructure::kFusedConsumer:
      return 0;
  }
  return 0;
}

namespace {

/// One stage's decisions, mixed the same way by both fingerprints.
void mix_stage(Fnv1a& h, const StageSchedule& ss) {
  for (const TileVector& t : ss.tiles) {
    for (std::int64_t f : t.factors) h.mix(static_cast<std::uint64_t>(f));
    h.mix(0xabcdULL);
  }
  h.mix(static_cast<std::uint64_t>(ss.compute_at + 1));
  h.mix(static_cast<std::uint64_t>(ss.parallel_depth + 1));
  h.mix(static_cast<std::uint64_t>(ss.unroll_index + 1));
  h.mix(0x1234ULL);
}

}  // namespace

std::uint64_t Schedule::fingerprint() const {
  Fnv1a h;
  // The schedule's identity includes where it comes from: sketches of one
  // subgraph differ structurally (cache_write/rfactor/fusion) even when the
  // low-level parameters coincide, and the measure cache may see schedules of
  // every task in a network, so the subgraph must disambiguate too.  The
  // sketch precomputes that prefix as a single salt word.
  h.mix(sketch->identity_salt);
  for (const StageSchedule& ss : stages) mix_stage(h, ss);
  return h.value();
}

std::string Schedule::to_string() const {
  std::ostringstream out;
  const Subgraph& g = graph();
  out << g.name() << " sketch=" << sketch->tag << '\n';
  for (int s = 0; s < g.num_stages(); ++s) {
    const StagePlan& plan = sketch->plan(s);
    const StageSchedule& ss = stage(s);
    out << "  stage " << s << " (" << g.stage(s).op.name << ", "
        << stage_structure_name(plan.structure) << ")";
    if (plan.cache_write) out << " +cache_write";
    if (plan.rfactor) out << " +rfactor";
    out << '\n';
    if (!ss.tiles.empty()) {
      out << "    tiles:";
      for (std::size_t a = 0; a < ss.tiles.size(); ++a) {
        out << ' ' << g.stage(s).op.axes[a].name << '=' << ss.tiles[a].to_string();
      }
      out << '\n';
    }
    if (plan.structure != StageStructure::kInlined) {
      out << "    parallel_depth=" << ss.parallel_depth
          << " unroll_index=" << ss.unroll_index;
      if (plan.has_compute_at_knob) out << " compute_at=" << ss.compute_at;
      out << '\n';
    }
  }
  return out.str();
}

Schedule random_schedule(const Sketch& sketch, int num_unroll_options, Rng& rng) {
  Schedule sched;
  sched.sketch = &sketch;
  const Subgraph& g = *sketch.graph;
  sched.stages.resize(static_cast<std::size_t>(g.num_stages()));
  for (int s = 0; s < g.num_stages(); ++s) {
    const StagePlan& plan = sketch.plan(s);
    const TensorOp& op = g.stage(s).op;
    StageSchedule& ss = sched.stages[static_cast<std::size_t>(s)];
    if (plan.structure == StageStructure::kTiled ||
        plan.structure == StageStructure::kSimple) {
      ss.tiles.reserve(op.axes.size());
      for (const Axis& axis : op.axes) {
        int levels = levels_for_axis(plan.structure, axis.kind);
        ss.tiles.push_back(random_tile(axis.extent, levels, rng));
      }
      ss.parallel_depth = rng.next_int(0, op.num_spatial_axes());
      ss.unroll_index = rng.next_int(0, num_unroll_options - 1);
    }
    if (plan.has_compute_at_knob) {
      ss.compute_at = rng.next_int(0, kComputeAtCandidates - 1);
    }
  }
  return sched;
}

Schedule prefix_schedule(const Schedule& full, int depth) {
  Schedule out = full;
  const Sketch& sk = *full.sketch;
  const Subgraph& g = *sk.graph;
  if (depth < 0) depth = 0;
  for (int s = depth; s < g.num_stages(); ++s) {
    const StagePlan& plan = sk.plan(s);
    const TensorOp& op = g.stage(s).op;
    StageSchedule& ss = out.stages[static_cast<std::size_t>(s)];
    ss = StageSchedule{};
    if (plan.structure == StageStructure::kTiled ||
        plan.structure == StageStructure::kSimple) {
      ss.tiles.reserve(op.axes.size());
      for (const Axis& axis : op.axes) {
        int levels = levels_for_axis(plan.structure, axis.kind);
        ss.tiles.push_back(trivial_tile(axis.extent, levels));
      }
      ss.parallel_depth = std::min(1, op.num_spatial_axes());
    }
  }
  return out;
}

std::uint64_t prefix_fingerprint(const Schedule& sched, int depth) {
  Fnv1a h;
  h.mix(sched.sketch->identity_salt);
  if (depth < 0) depth = 0;
  int stages = static_cast<int>(sched.stages.size());
  if (depth > stages) depth = stages;
  h.mix(static_cast<std::uint64_t>(depth) + 0x9e3779b9ULL);
  for (int s = 0; s < depth; ++s) mix_stage(h, sched.stages[static_cast<std::size_t>(s)]);
  return h.value();
}

std::string validate_schedule(const Schedule& sched, int num_unroll_options) {
  std::ostringstream err;
  if (sched.sketch == nullptr) return "schedule has no sketch";
  const Sketch& sk = *sched.sketch;
  const Subgraph& g = *sk.graph;
  if (static_cast<int>(sched.stages.size()) != g.num_stages()) {
    return "stage count mismatch";
  }
  for (int s = 0; s < g.num_stages(); ++s) {
    const StagePlan& plan = sk.plan(s);
    const TensorOp& op = g.stage(s).op;
    const StageSchedule& ss = sched.stage(s);
    bool needs_tiles = plan.structure == StageStructure::kTiled ||
                       plan.structure == StageStructure::kSimple;
    if (needs_tiles) {
      if (ss.tiles.size() != op.axes.size()) {
        err << "stage " << s << ": tile vector count " << ss.tiles.size()
            << " != axes " << op.axes.size() << "; ";
        continue;
      }
      for (std::size_t a = 0; a < op.axes.size(); ++a) {
        const Axis& axis = op.axes[a];
        const TileVector& t = ss.tiles[a];
        int expect_levels = levels_for_axis(plan.structure, axis.kind);
        if (t.levels() != expect_levels) {
          err << "stage " << s << " axis " << axis.name << ": levels " << t.levels()
              << " != " << expect_levels << "; ";
        }
        if (t.product() != axis.extent) {
          err << "stage " << s << " axis " << axis.name << ": tile product "
              << t.product() << " != extent " << axis.extent << "; ";
        }
        for (std::int64_t f : t.factors) {
          if (f < 1) err << "stage " << s << ": non-positive tile factor; ";
        }
      }
      if (ss.parallel_depth < 0 || ss.parallel_depth > op.num_spatial_axes()) {
        err << "stage " << s << ": parallel_depth " << ss.parallel_depth
            << " out of [0," << op.num_spatial_axes() << "]; ";
      }
      if (ss.unroll_index < 0 || ss.unroll_index >= num_unroll_options) {
        err << "stage " << s << ": unroll_index " << ss.unroll_index
            << " out of range; ";
      }
    } else if (!ss.tiles.empty()) {
      err << "stage " << s << ": unexpected tiles for "
          << stage_structure_name(plan.structure) << "; ";
    }
    if (plan.has_compute_at_knob &&
        (ss.compute_at < 0 || ss.compute_at >= kComputeAtCandidates)) {
      err << "stage " << s << ": compute_at " << ss.compute_at << " out of range; ";
    }
  }
  return err.str();
}

}  // namespace harl
