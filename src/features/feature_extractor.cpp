#include "features/feature_extractor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sched/tiling.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace harl {

namespace {

double log2p1(double x) { return std::log2(1.0 + std::max(0.0, x)); }

/// Per-axis inner sizes of a stage at a given spatial/reduction level pair,
/// written into caller-provided scratch (no allocation).
void inner_sizes(const TensorOp& op, const StageSchedule& ss, int spatial_level,
                 int reduction_level, std::int64_t* sizes) {
  for (std::size_t a = 0; a < op.axes.size(); ++a) {
    const TileVector& t = ss.tiles[a];
    int lvl = op.axes[a].kind == AxisKind::kSpatial ? spatial_level : reduction_level;
    sizes[a] = t.inner_size(std::min(lvl, t.levels()));
  }
}

/// One slot's RL feature: log2(factor) normalized by the axis extent.
double slot_feature(const Schedule& sched, const TileSlot& slot) {
  const TileVector& t =
      sched.stage(slot.stage).tiles[static_cast<std::size_t>(slot.axis)];
  double extent = static_cast<double>(t.product());
  double f = static_cast<double>(t.factors[static_cast<std::size_t>(slot.level)]);
  return extent > 1 ? std::log2(f) / std::log2(extent) : 0.0;
}

double footprint_at(const TensorOp& op, const std::int64_t* inner) {
  double bytes = 0;
  for (const TensorAccess& in : op.inputs) {
    bytes += static_cast<double>(in.tile_bytes(inner));
  }
  double out = 1;
  for (std::size_t a = 0; a < op.axes.size(); ++a) {
    if (op.axes[a].kind == AxisKind::kSpatial) out *= static_cast<double>(inner[a]);
  }
  return bytes + out * op.out_elem_bytes;
}

}  // namespace

void FeatureExtractor::extract_into(const Schedule& sched, double* out) const {
  std::fill(out, out + kNumFeatures, 0.0);
  const Sketch& sk = *sched.sketch;
  const Subgraph& g = *sk.graph;
  const HardwareConfig& hw = *hw_;

  // --- Global program features (0..6) --------------------------------------
  double total_flops = 0;
  double total_bytes = 0;
  for (int s = 0; s < g.num_stages(); ++s) {
    total_flops += g.stage(s).op.total_flops();
    total_bytes += static_cast<double>(g.stage(s).op.input_bytes_once() +
                                       g.stage(s).op.output_bytes());
  }
  out[0] = log2p1(total_flops);
  out[1] = log2p1(total_bytes);
  out[2] = log2p1(total_flops / std::max(1.0, total_bytes));
  out[3] = static_cast<double>(g.num_stages());
  int anchor = g.anchor_stage();
  const StagePlan& aplan = sk.plan(anchor);
  out[4] = aplan.cache_write ? 1.0 : 0.0;
  out[5] = aplan.rfactor ? 1.0 : 0.0;
  bool has_fused = false;
  for (const StagePlan& p : sk.plans) {
    has_fused = has_fused || p.structure == StageStructure::kFusedConsumer;
  }
  out[6] = has_fused ? 1.0 : 0.0;

  // --- Anchor stage knobs (7..15) -------------------------------------------
  const TensorOp& op = g.stage(anchor).op;
  const StageSchedule& ss = sched.stage(anchor);
  if (ss.tiles.empty()) return;  // fully structural stage; globals only

  double parallel_iters = 1;
  int seen_spatial = 0;
  for (std::size_t a = 0; a < op.axes.size(); ++a) {
    if (op.axes[a].kind != AxisKind::kSpatial) continue;
    if (seen_spatial++ >= ss.parallel_depth) break;
    if (!ss.tiles[a].factors.empty()) {
      parallel_iters *= static_cast<double>(ss.tiles[a].factors[0]);
    }
  }
  out[7] = log2p1(parallel_iters);
  out[8] = std::min(8.0, parallel_iters / hw.num_cores);
  double chunks = std::ceil(parallel_iters / hw.num_cores);
  out[9] = parallel_iters / std::max(1.0, chunks * std::min<double>(parallel_iters,
                                                                    hw.num_cores));
  int last_spatial = -1;
  for (std::size_t a = 0; a < op.axes.size(); ++a) {
    if (op.axes[a].kind == AxisKind::kSpatial) last_spatial = static_cast<int>(a);
  }
  double innermost = last_spatial >= 0 && !ss.tiles[static_cast<std::size_t>(last_spatial)]
                                               .factors.empty()
                         ? static_cast<double>(
                               ss.tiles[static_cast<std::size_t>(last_spatial)].factors.back())
                         : 1.0;
  out[10] = log2p1(innermost);
  double lanes = hw.vector_lanes;
  out[11] = innermost / (std::ceil(innermost / lanes) * lanes);
  double unroll = static_cast<double>(
      hw.unroll_depths[static_cast<std::size_t>(ss.unroll_index)]);
  out[12] = log2p1(unroll);
  out[13] = hw.num_unroll_options() > 1
                ? static_cast<double>(ss.unroll_index) / (hw.num_unroll_options() - 1)
                : 0.0;
  int ca_stage = sk.primary_compute_at_stage;
  out[14] = ca_stage >= 0 ? static_cast<double>(sched.stage(ca_stage).compute_at) /
                                (kComputeAtCandidates - 1)
                          : 0.0;
  out[15] = static_cast<double>(ss.parallel_depth) /
            std::max(1, op.num_spatial_axes());

  // --- Per-level tile products (16..21) -------------------------------------
  for (int lvl = 0; lvl < kSpatialTileLevels; ++lvl) {
    double prod = 1;
    for (std::size_t a = 0; a < op.axes.size(); ++a) {
      if (op.axes[a].kind == AxisKind::kSpatial && lvl < ss.tiles[a].levels()) {
        prod *= static_cast<double>(ss.tiles[a].factors[static_cast<std::size_t>(lvl)]);
      }
    }
    out[16 + lvl] = log2p1(prod);
  }
  for (int lvl = 0; lvl < kReductionTileLevels; ++lvl) {
    double prod = 1;
    for (std::size_t a = 0; a < op.axes.size(); ++a) {
      if (op.axes[a].kind == AxisKind::kReduction && lvl < ss.tiles[a].levels()) {
        prod *= static_cast<double>(ss.tiles[a].factors[static_cast<std::size_t>(lvl)]);
      }
    }
    out[20 + lvl] = log2p1(prod);
  }

  // --- Working-set-to-cache ratios (22..30) ----------------------------------
  // Footprints at three representative blocking depths vs each cache level.
  HARL_CHECK(op.axes.size() <= static_cast<std::size_t>(kMaxAxes),
             "operator exceeds FeatureExtractor::kMaxAxes");
  std::int64_t scratch[kMaxAxes];
  inner_sizes(op, ss, kSpatialTileLevels - 1, kReductionTileLevels, scratch);
  double fp_inner = footprint_at(op, scratch);
  inner_sizes(op, ss, 2, 1, scratch);
  double fp_mid = footprint_at(op, scratch);
  inner_sizes(op, ss, 1, 0, scratch);
  double fp_outer = footprint_at(op, scratch);
  int fi = 22;
  for (std::size_t c = 0; c + 1 < hw.levels.size() && fi < 31; ++c) {
    double cap = hw.levels[c].capacity_bytes;
    out[fi++] = std::min(8.0, fp_inner / cap);
    out[fi++] = std::min(8.0, fp_mid / cap);
    out[fi++] = std::min(8.0, fp_outer / cap);
  }

  // --- Per-axis innermost factors (31..36), up to 4 spatial + 2 reduction ---
  int si = 31;
  int ri = 35;
  for (std::size_t a = 0; a < op.axes.size(); ++a) {
    if (op.axes[a].kind == AxisKind::kSpatial && si < 35) {
      out[si++] = log2p1(static_cast<double>(ss.tiles[a].factors.back()));
    } else if (op.axes[a].kind == AxisKind::kReduction && ri < 37) {
      out[ri++] = log2p1(static_cast<double>(ss.tiles[a].factors.back()));
    }
  }

  // --- Outer trip counts and points (37..41) ---------------------------------
  double outer_trips = 1;
  for (std::size_t a = 0; a < op.axes.size(); ++a) {
    if (!ss.tiles[a].factors.empty()) {
      outer_trips *= static_cast<double>(ss.tiles[a].factors[0]);
    }
  }
  out[37] = log2p1(outer_trips);
  out[38] = log2p1(static_cast<double>(op.iter_space_points()));
  out[39] = log2p1(static_cast<double>(op.output_elems()));
  double red_points = 1;
  for (const Axis& ax : op.axes) {
    if (ax.kind == AxisKind::kReduction) red_points *= static_cast<double>(ax.extent);
  }
  out[40] = log2p1(red_points);
  out[41] = static_cast<double>(sk.sketch_id);

  // Remaining slots (42..47) reserved (zero) for forward compatibility.
}

std::vector<double> FeatureExtractor::extract(const Schedule& sched) const {
  std::vector<double> out(kNumFeatures, 0.0);
  extract_into(sched, out.data());
  return out;
}

void FeatureExtractor::extract_matrix_into(const std::vector<Schedule>& scheds,
                                           double* out, ThreadPool* pool) const {
  constexpr std::size_t kW = kNumFeatures;
  if (pool != nullptr && scheds.size() > 1) {
    pool->parallel_for(scheds.size(), [&](std::size_t i) {
      extract_into(scheds[i], out + i * kW);
    });
  } else {
    for (std::size_t i = 0; i < scheds.size(); ++i) {
      extract_into(scheds[i], out + i * kW);
    }
  }
}

void FeatureExtractor::extract_prefix_into(const Schedule& sched, int depth,
                                           double* out) const {
  const int stages = static_cast<int>(sched.stages.size());
  if (depth < 0) depth = 0;
  if (depth > stages) depth = stages;
  Schedule prefix = prefix_schedule(sched, depth);
  extract_into(prefix, out);
  out[kNumFeatures] =
      stages > 0 ? static_cast<double>(depth) / static_cast<double>(stages) : 1.0;
  out[kNumFeatures + 1] = static_cast<double>(stages - depth);
}

void FeatureExtractor::extract_prefix_matrix_into(
    const std::vector<Schedule>& scheds, int depth, double* out) const {
  constexpr std::size_t kW = kNumPrefixFeatures;
  for (std::size_t i = 0; i < scheds.size(); ++i) {
    extract_prefix_into(scheds[i], depth, out + i * kW);
  }
}

std::vector<double> slot_features(const Schedule& sched,
                                  const std::vector<TileSlot>& slots) {
  std::vector<double> out;
  out.reserve(slots.size());
  for (const TileSlot& slot : slots) out.push_back(slot_feature(sched, slot));
  return out;
}

int rl_observation_dim(const ActionSpace& space) {
  return FeatureExtractor::kNumFeatures + space.num_slots() + 3;
}

void rl_observation_into(const FeatureExtractor& fx, const ActionSpace& space,
                         const Schedule& sched, double* out) {
  fx.extract_into(sched, out);
  std::size_t p = FeatureExtractor::kNumFeatures;
  for (const TileSlot& slot : space.slots()) out[p++] = slot_feature(sched, slot);
  const Sketch& sk = space.sketch();
  int ca_stage = sk.primary_compute_at_stage;
  out[p++] = ca_stage >= 0 ? static_cast<double>(sched.stage(ca_stage).compute_at) /
                                 (kComputeAtCandidates - 1)
                           : 0.0;
  int anchor = sk.graph->anchor_stage();
  const TensorOp& aop = sk.graph->stage(anchor).op;
  const StageSchedule& ass = sched.stage(anchor);
  out[p++] = static_cast<double>(ass.parallel_depth) /
             std::max(1, aop.num_spatial_axes());
  out[p++] = space.num_unroll_options() > 1
                 ? static_cast<double>(ass.unroll_index) /
                       (space.num_unroll_options() - 1)
                 : 0.0;
}

void rl_observation_into(const FeatureExtractor& fx, const ActionSpace& space,
                         const Schedule& sched, std::vector<double>& out) {
  out.resize(static_cast<std::size_t>(rl_observation_dim(space)));
  rl_observation_into(fx, space, sched, out.data());
}

std::vector<double> rl_observation(const FeatureExtractor& fx, const ActionSpace& space,
                                   const Schedule& sched) {
  std::vector<double> obs;
  rl_observation_into(fx, space, sched, obs);
  return obs;
}

std::vector<int> rl_observation_support(const ActionSpace& space) {
  const Sketch& sk = space.sketch();
  const Subgraph& g = *sk.graph;
  const int anchor = g.anchor_stage();
  const StagePlan& aplan = sk.plan(anchor);
  const TensorOp& aop = g.stage(anchor).op;
  // extract_into's early return: a stage without tiles has only globals.
  const bool anchor_tiled = levels_for_axis(aplan.structure, AxisKind::kSpatial) > 0 &&
                            aop.num_axes() > 0;
  const bool has_compute_at = sk.primary_compute_at_stage >= 0;
  bool has_fused = false;
  for (const StagePlan& p : sk.plans) {
    has_fused = has_fused || p.structure == StageStructure::kFusedConsumer;
  }
  std::vector<int> support;
  int col = 0;
  auto keep = [&](bool kept) {
    if (kept) support.push_back(col);
    ++col;
  };
  for (int f = 0; f < 4; ++f) keep(true);
  keep(aplan.cache_write);  // 4
  keep(aplan.rfactor);      // 5
  keep(has_fused);          // 6
  for (int f = 7; f < 31; ++f) keep(anchor_tiled && (f != 14 || has_compute_at));
  for (int f = 31; f < 35; ++f) keep(anchor_tiled && f - 31 < aop.num_spatial_axes());
  for (int f = 35; f < 37; ++f) keep(anchor_tiled && f - 35 < aop.num_reduction_axes());
  for (int f = 37; f < 41; ++f) keep(anchor_tiled);
  keep(anchor_tiled && sk.sketch_id != 0);  // 41
  while (col < FeatureExtractor::kNumFeatures) keep(false);  // reserved 42..47
  for (const TileSlot& slot : space.slots()) {
    keep(g.stage(slot.stage).op.axes[static_cast<std::size_t>(slot.axis)].extent > 1);
  }
  keep(has_compute_at);
  keep(true);  // parallel depth
  keep(true);  // unroll index
  return support;
}

namespace {

/// Writes the low `bits` bits of `v` at bit `*at` of `row` (least
/// significant first), which must still be zero there, and advances `*at`.
void put_bits(std::uint8_t* row, std::size_t* at, int bits, std::uint32_t v) {
  for (int done = 0; done < bits;) {
    const std::size_t pos = *at + static_cast<std::size_t>(done);
    const int shift = static_cast<int>(pos % 8);
    const int n = std::min(8 - shift, bits - done);
    row[pos / 8] |= static_cast<std::uint8_t>(((v >> done) & ((1U << n) - 1)) << shift);
    done += n;
  }
  *at += static_cast<std::size_t>(bits);
}

/// Reads the `bits`-bit value at bit `*at` of `row` and advances `*at`.
std::uint32_t get_bits(const std::uint8_t* row, std::size_t* at, int bits) {
  std::uint32_t v = 0;
  for (int done = 0; done < bits;) {
    const std::size_t pos = *at + static_cast<std::size_t>(done);
    const int shift = static_cast<int>(pos % 8);
    const int n = std::min(8 - shift, bits - done);
    v |= static_cast<std::uint32_t>((row[pos / 8] >> shift) & ((1U << n) - 1)) << done;
    done += n;
  }
  *at += static_cast<std::size_t>(bits);
  return v;
}

}  // namespace

RlStateCodec::RlStateCodec(const FeatureExtractor& fx, const ActionSpace& space)
    : fx_(fx), space_(&space) {
  // The all-undecided prefix of any schedule of the sketch has its layout:
  // trivial tiles, whose product is the axis extent.
  const Sketch& sk = space.sketch();
  Schedule blank;
  blank.sketch = &sk;
  blank.stages.resize(static_cast<std::size_t>(sk.graph->num_stages()));
  scratch_ = prefix_schedule(blank, 0);
  auto add_field = [this](int lo, std::uint32_t count) {
    int bits = 0;
    while ((std::uint64_t{1} << bits) < count) ++bits;
    fields_.push_back({lo, count, bits});
  };
  const StageSchedule unused;  // the knob values of a stage without them
  for (std::size_t s = 0; s < scratch_.stages.size(); ++s) {
    const StagePlan& plan = sk.plans[s];
    const StageSchedule& ss = scratch_.stages[s];
    for (const TileVector& t : ss.tiles) {
      divisors_.push_back(divisors(t.product()));
      const auto count = static_cast<std::uint32_t>(divisors_.back().size());
      for (int l = 0; l < t.levels(); ++l) add_field(0, count);
    }
    if (plan.has_compute_at_knob) {
      add_field(0, kComputeAtCandidates);
    } else {
      add_field(unused.compute_at, 1);
    }
    if (levels_for_axis(plan.structure, AxisKind::kSpatial) > 0) {
      const int spatial = sk.graph->stage(static_cast<int>(s)).op.num_spatial_axes();
      add_field(0, static_cast<std::uint32_t>(spatial + 1));
      add_field(0, static_cast<std::uint32_t>(space.num_unroll_options()));
    } else {
      add_field(unused.parallel_depth, 1);
      add_field(unused.unroll_index, 1);
    }
  }
  std::size_t row_bits = 0;
  for (const Field& f : fields_) row_bits += static_cast<std::size_t>(f.bits);
  bytes_ = static_cast<int>(std::max<std::size_t>(1, (row_bits + 7) / 8));
}

void RlStateCodec::encode(const Schedule& sched, std::uint8_t* row) const {
  HARL_CHECK(sched.sketch == scratch_.sketch,
             "RlStateCodec::encode: schedule of another sketch");
  HARL_CHECK(sched.stages.size() == scratch_.stages.size(),
             "RlStateCodec::encode: stage count differs from the sketch's");
  std::fill(row, row + bytes_, std::uint8_t{0});
  std::size_t at = 0;
  const Field* field = fields_.data();
  auto put = [&](std::uint32_t index) { put_bits(row, &at, field++->bits, index); };
  auto knob = [&](int v) {
    HARL_CHECK(v >= field->lo && static_cast<std::uint32_t>(v - field->lo) < field->count,
               "RlStateCodec::encode: knob outside its legal range");
    put(static_cast<std::uint32_t>(v - field->lo));
  };
  const std::vector<std::int64_t>* divs = divisors_.data();
  for (std::size_t s = 0; s < sched.stages.size(); ++s) {
    const StageSchedule& ss = sched.stages[s];
    const std::vector<TileVector>& layout = scratch_.stages[s].tiles;
    HARL_CHECK(ss.tiles.size() == layout.size(),
               "RlStateCodec::encode: tile layout differs from the sketch's");
    for (std::size_t a = 0; a < layout.size(); ++a, ++divs) {
      HARL_CHECK(ss.tiles[a].levels() == layout[a].levels(),
                 "RlStateCodec::encode: tile layout differs from the sketch's");
      for (std::int64_t f : ss.tiles[a].factors) {
        const auto it = std::lower_bound(divs->begin(), divs->end(), f);
        HARL_CHECK(it != divs->end() && *it == f,
                   "RlStateCodec::encode: tile factor is not a divisor of its extent");
        put(static_cast<std::uint32_t>(it - divs->begin()));
      }
    }
    knob(ss.compute_at);
    knob(ss.parallel_depth);
    knob(ss.unroll_index);
  }
}

void RlStateCodec::decode_into(const std::uint8_t* row, Schedule* out) const {
  std::size_t at = 0;
  const Field* field = fields_.data();
  auto next = [&] {
    const std::uint32_t v = get_bits(row, &at, field->bits);
    HARL_CHECK(v < field->count, "RlStateCodec: a field's index is beyond its range");
    return field++->lo + static_cast<int>(v);
  };
  const std::vector<std::int64_t>* divs = divisors_.data();
  for (StageSchedule& ss : out->stages) {
    for (TileVector& t : ss.tiles) {
      for (std::int64_t& f : t.factors) f = (*divs)[static_cast<std::size_t>(next())];
      ++divs;
    }
    ss.compute_at = next();
    ss.parallel_depth = next();
    ss.unroll_index = next();
  }
}

Schedule RlStateCodec::decode(const std::uint8_t* row) const {
  Schedule out = scratch_;
  decode_into(row, &out);
  return out;
}

void RlStateCodec::observe(const std::uint8_t* row, double* obs) {
  decode_into(row, &scratch_);
  rl_observation_into(fx_, *space_, scratch_, obs);
}

}  // namespace harl
