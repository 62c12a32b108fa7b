#pragma once

/// \file feature_extractor.hpp
/// Schedule featurization: fixed-width numeric features (tiling shape,
/// locality ratios, parallelism, hardware-relative terms) extracted
/// allocation-free, one row or one flat matrix at a time.  Invariant:
/// extraction is deterministic and row layout is stable (kNumFeatures).
/// Collaborators: XgbCostModel, ExperienceStore, RL observations.

#include <cstdint>
#include <vector>

#include "hwsim/hardware_config.hpp"
#include "sched/actions.hpp"
#include "sched/schedule.hpp"

namespace harl {

class ThreadPool;

/// Ansor-style schedule featurization for the learned cost model and the RL
/// agent's observation.
///
/// Produces a fixed-width vector of structural program properties: work and
/// traffic magnitudes, arithmetic intensity, per-level tile products,
/// innermost/vectorizable extents, parallelism and load balance, unroll
/// depth, compute-at position, and working-set-to-cache-capacity ratios.
/// Deliberately *not* the simulator's full traffic model: the cost model has
/// to learn the landscape from measurements (as XGBoost does in the paper),
/// not read it off a feature.
///
/// `extract_into` performs no heap allocation (fixed stack scratch), so the
/// batched `extract_matrix_into` can fan schedules out across a pool with
/// every worker writing straight into its row of one flat matrix.
class FeatureExtractor {
 public:
  static constexpr int kNumFeatures = 48;
  /// Width of a *prefix* feature row: the ordinary features of the
  /// suffix-neutralized schedule plus two prefix descriptors (decided-depth
  /// fraction, undecided-stage count).  Deliberately distinct from
  /// kNumFeatures so a value-head model file can never be loaded as an
  /// experience cost model (or vice versa) — `Gbdt::num_features()` catches
  /// the mismatch at load time.
  static constexpr int kNumPrefixFeatures = kNumFeatures + 2;
  /// Upper bound on iteration axes per operator supported by the
  /// allocation-free scratch (largest real workload, conv3d, has 11).
  static constexpr int kMaxAxes = 16;

  explicit FeatureExtractor(const HardwareConfig* hw) : hw_(hw) {}

  /// Feature vector of fixed length kNumFeatures.
  std::vector<double> extract(const Schedule& sched) const;
  void extract_into(const Schedule& sched, double* out) const;

  /// Fill `out` (row-major, scheds.size() x kNumFeatures) with one feature
  /// row per schedule.  With a pool, rows are extracted in parallel; results
  /// are indexed by position, so the fill is deterministic either way.
  void extract_matrix_into(const std::vector<Schedule>& scheds, double* out,
                           ThreadPool* pool = nullptr) const;

  /// Feature row (length kNumPrefixFeatures) of the first `depth` decided
  /// stages of `sched`: the ordinary features of `prefix_schedule(sched,
  /// depth)` followed by [depth / num_stages, num_stages - depth].  Input is
  /// the *full* schedule; neutralization happens here.  Unlike
  /// `extract_into` this copies the schedule (value scoring is off the
  /// per-trial hot path).
  void extract_prefix_into(const Schedule& sched, int depth, double* out) const;

  /// Row-major scheds.size() x kNumPrefixFeatures prefix-feature matrix, all
  /// rows at the same `depth`.  Serial on purpose: prefix scoring batches are
  /// small (beam candidates) and a serial fill keeps the value-guided
  /// schedule stream trivially independent of pool size.
  void extract_prefix_matrix_into(const std::vector<Schedule>& scheds, int depth,
                                  double* out) const;

  const HardwareConfig& hardware() const { return *hw_; }

 private:
  const HardwareConfig* hw_;
};

/// Per-tile-slot features for the RL observation: log2(factor)/log2(extent)
/// of every (stage, axis, level) slot of the action space, in slot order.
/// Gives the policy network direct sight of the tiling state it mutates.
std::vector<double> slot_features(const Schedule& sched,
                                  const std::vector<TileSlot>& slots);

/// Width of the RL observation of `space`'s schedules:
/// FeatureExtractor::kNumFeatures + space.num_slots() + 3.
int rl_observation_dim(const ActionSpace& space);

/// Full RL observation: FeatureExtractor output followed by slot features
/// and the normalized compute-at/parallel/unroll knob values, in
/// rl_observation_dim(space) values.
std::vector<double> rl_observation(const FeatureExtractor& fx, const ActionSpace& space,
                                   const Schedule& sched);

/// In-place variants: fill `out` (rl_observation_dim(space) values) without
/// allocating.  The vector form resizes `out` first, so a buffer reused
/// across steps (the HARL tune-round inner loop does) allocates once.
void rl_observation_into(const FeatureExtractor& fx, const ActionSpace& space,
                         const Schedule& sched, double* out);
void rl_observation_into(const FeatureExtractor& fx, const ActionSpace& space,
                         const Schedule& sched, std::vector<double>& out);

/// The observation columns some schedule of `space`'s sketch can make
/// nonzero, ascending: every column except
///   - the reserved features 42-47;
///   - the sketch flags 4-6 (cache write, rfactor, fused consumer) the
///     sketch does not set;
///   - feature 41 (sketch id) of sketch 0;
///   - feature 14 and the trailing compute-at column when the sketch has no
///     compute-at knob;
///   - the per-axis features 31-36 past the anchor's spatial (31-34) and
///     reduction (35-36) axes;
///   - the slot features of extent-1 axes;
///   - features 7-47 when the anchor stage has no tiles.
/// A column outside it reads exactly 0.0 in every rl_observation of the
/// sketch's schedules; a column inside it may still be zero everywhere.
/// PpoAgent builds its first layers over these columns only.
std::vector<int> rl_observation_support(const ActionSpace& space);

/// The RL state of one sketch's schedules as a fixed-size row of bytes: the
/// replay ring stores these rows and derives observations from them.
///
/// A row is a sequence of bit fields, stage by stage in sketch order: every
/// tile factor of every axis (outermost level first), then compute_at,
/// parallel_depth and unroll_index.  A field that takes `n` values holds
/// ceil(log2 n) bits, packed least significant bit first from bit 0 of byte
/// 0 with no padding between fields; a row is the fields' bits rounded up
/// to whole bytes (at least one).  A tile factor divides its axis extent
/// (tiling.hpp), so it is stored as its index in the extent's ascending
/// divisor list (n = the list's size), which the codec builds once per
/// (stage, axis).  A knob is stored as its offset from the bottom of its
/// legal range: compute_at in [0, kComputeAtCandidates) on a stage with the
/// knob, parallel_depth in [0, spatial axes] and unroll_index in [0, unroll
/// options) on a tiled or simple stage, and elsewhere the single value a
/// default StageSchedule holds (no bits).  So an extent-1 axis and an
/// unused knob cost nothing.  The sketch fixes which stages carry tiles and
/// how many levels each axis has, so every schedule of the sketch has the
/// same bytes() and a row round-trips to a schedule with the same
/// fingerprint().
class RlStateCodec {
 public:
  /// `space` (and its sketch) must outlive the codec; `fx` is copied.
  RlStateCodec(const FeatureExtractor& fx, const ActionSpace& space);

  /// Bytes per row.
  int bytes() const { return bytes_; }

  /// Write `sched`'s decisions to `row` (bytes() values).  Aborts unless
  /// `sched` belongs to this codec's sketch with its tile layout, every tile
  /// factor divides its axis extent and every knob is in its legal range.
  void encode(const Schedule& sched, std::uint8_t* row) const;

  /// The schedule `row` encodes.  Aborts when a field holds an index past
  /// its range (a corrupt row).
  Schedule decode(const std::uint8_t* row) const;

  /// rl_observation of the schedule `row` encodes, written to `obs`
  /// (rl_observation_dim wide).  Decodes into a reused scratch schedule, so
  /// it does not allocate; not safe to call concurrently on one codec.
  void observe(const std::uint8_t* row, double* obs);

 private:
  /// One bit field of the row: a value in [lo, lo + count).
  struct Field {
    int lo = 0;
    std::uint32_t count = 1;
    int bits = 0;  ///< ceil(log2 count)
  };

  /// Overwrite the decisions of `out`, which already has the row layout.
  void decode_into(const std::uint8_t* row, Schedule* out) const;

  FeatureExtractor fx_;
  const ActionSpace* space_;
  Schedule scratch_;  ///< a schedule of the sketch; fixes the row layout
  /// Ascending divisors of each tiled axis's extent, (stage, axis) in row
  /// order.
  std::vector<std::vector<std::int64_t>> divisors_;
  /// Every field of the row in order: a tile factor's range is its divisor
  /// indices.
  std::vector<Field> fields_;
  int bytes_ = 0;
};

}  // namespace harl
