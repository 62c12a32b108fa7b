#include "sched/sketch.hpp"

#include "util/fnv.hpp"

namespace harl {

const char* stage_structure_name(StageStructure s) {
  switch (s) {
    case StageStructure::kSimple: return "simple";
    case StageStructure::kInlined: return "inlined";
    case StageStructure::kTiled: return "tiled";
    case StageStructure::kFusedConsumer: return "fused";
  }
  return "?";
}

namespace {

/// Largest reduction iteration count of a stage (1 when no reduction).
std::int64_t reduction_points(const TensorOp& op) {
  std::int64_t n = 1;
  for (const Axis& a : op.axes) {
    if (a.kind == AxisKind::kReduction) n *= a.extent;
  }
  return n;
}

/// Base structure decisions shared by every sketch variant.
std::vector<StagePlan> base_plans(const Subgraph& g) {
  std::vector<StagePlan> plans(static_cast<std::size_t>(g.num_stages()));
  for (int s = 0; s < g.num_stages(); ++s) {
    StagePlan& p = plans[static_cast<std::size_t>(s)];
    const TensorOp& op = g.stage(s).op;
    bool has_consumer = !g.consumers(s).empty();
    if (op.is_elementwise() && has_consumer) {
      // Rule "Inline": strictly elementwise non-output stages are always
      // folded into their consumer.
      p.structure = StageStructure::kInlined;
    } else if (op.has_data_reuse()) {
      // Rule "Tiling": data reuse warrants multi-level tiling.
      p.structure = StageStructure::kTiled;
      p.has_compute_at_knob = has_consumer;
    } else {
      // Rule "Skip": no reuse — keep the plain loop nest.
      p.structure = StageStructure::kSimple;
    }
  }
  // Rule "Tiling with Fusion": an elementwise output stage fed by a tiled
  // producer executes inside that producer's outer tiles. The fusion level is
  // a tunable compute-at position.
  for (int s = 0; s < g.num_stages(); ++s) {
    StagePlan& p = plans[static_cast<std::size_t>(s)];
    if (p.structure != StageStructure::kSimple) continue;
    if (!g.consumers(s).empty()) continue;  // only output stages fuse upward
    if (!g.stage(s).op.is_elementwise()) continue;
    for (std::size_t i = 0; i < g.stage(s).producer_of_input.size(); ++i) {
      int prod = g.stage(s).producer_of_input[i];
      if (prod >= 0 &&
          plans[static_cast<std::size_t>(prod)].structure == StageStructure::kTiled) {
        p.structure = StageStructure::kFusedConsumer;
        p.has_compute_at_knob = true;
        break;
      }
    }
  }
  return plans;
}

int pick_primary_compute_at(const std::vector<StagePlan>& plans, int anchor) {
  // Prefer the anchor's own knob (cache-write position), then any other.
  if (plans[static_cast<std::size_t>(anchor)].has_compute_at_knob) return anchor;
  for (std::size_t s = 0; s < plans.size(); ++s) {
    if (plans[s].has_compute_at_knob) return static_cast<int>(s);
  }
  return -1;
}

}  // namespace

std::vector<Sketch> generate_sketches(const Subgraph& g) {
  std::vector<Sketch> sketches;
  const int anchor = g.anchor_stage();
  const TensorOp& anchor_op = g.stage(anchor).op;
  std::vector<StagePlan> base = base_plans(g);

  auto push = [&](std::vector<StagePlan> plans, const std::string& tag) {
    Sketch sk;
    sk.graph = &g;
    sk.sketch_id = static_cast<int>(sketches.size());
    sk.plans = std::move(plans);
    sk.tag = tag;
    sk.primary_compute_at_stage = pick_primary_compute_at(sk.plans, anchor);
    // FNV-1a over the structural identity, hashed once here so per-candidate
    // fingerprinting only mixes a single word.
    // Characters mix as sign-extended chars, not bytes (salts are persisted).
    Fnv1a salt;
    for (char c : g.name()) salt.mix(static_cast<std::uint64_t>(c));
    salt.mix(0x5347ULL);
    for (char c : sk.tag) salt.mix(static_cast<std::uint64_t>(c));
    salt.mix(0x534bULL);
    sk.identity_salt = salt.value();
    sketches.push_back(std::move(sk));
  };

  bool anchor_tiled =
      base[static_cast<std::size_t>(anchor)].structure == StageStructure::kTiled;
  if (!anchor_tiled) {
    // No tiled compute stage: single structural choice.
    push(base, "S");
    return sketches;
  }

  // Variant 1: plain multi-level tiling.
  push(base, "T");

  // Variant 2 ("Cache Write"): local accumulation buffer for reduction
  // stages; exposes the buffer's compute-at position as a knob.
  if (anchor_op.has_reduction()) {
    std::vector<StagePlan> plans = base;
    plans[static_cast<std::size_t>(anchor)].cache_write = true;
    plans[static_cast<std::size_t>(anchor)].has_compute_at_knob = true;
    push(std::move(plans), "T+CW");
  }

  // Variant 3 ("rfactor"): parallelize the reduction dimension when it is
  // substantial enough to be worth a cross-thread merge pass.
  if (reduction_points(anchor_op) >= 16) {
    std::vector<StagePlan> plans = base;
    plans[static_cast<std::size_t>(anchor)].rfactor = true;
    push(std::move(plans), "T+RF");
  }

  return sketches;
}

}  // namespace harl
