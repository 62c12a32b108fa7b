#pragma once

/// \file hardware_config.hpp
/// The simulated machine model: cache/core/vector/frequency parameters with
/// a stable `fingerprint()` identity and a `similarity_vector()` for scored
/// cross-hardware transfer.  Invariant: equal configs hash equal; the
/// fingerprint partitions record logs per machine.
/// Collaborators: CostSimulator, FeatureExtractor, records/transfer.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace harl {

/// One level of the cache hierarchy.
///
/// `serve_bandwidth_gbps` is the rate at which this level refills the level
/// below it (so the DRAM entry models main-memory bandwidth). `per_core`
/// levels scale their aggregate bandwidth with the number of active cores
/// (private L1/L2); shared levels do not (L3, DRAM).
struct CacheLevel {
  std::string name;
  double capacity_bytes = 0;       ///< 0 for the backing store (infinite)
  double serve_bandwidth_gbps = 0;
  bool per_core = false;
};

/// Analytical machine description consumed by the cost simulator.
///
/// This is the reproduction's substitute for the paper's physical testbed
/// (Intel Xeon 6226R / Nvidia RTX 3090; Appendix A.2): a deterministic
/// performance model with the same qualitative trade-offs — cache-capacity
/// tiling sweet spots, vector-lane utilization, parallel speedup with
/// fork/join overhead, loop/unroll overhead with an instruction-cache
/// ceiling — so search algorithms face the same optimization landscape
/// shape. See DESIGN.md's substitution table.
struct HardwareConfig {
  std::string name;

  // Compute throughput.
  int num_cores = 1;
  double freq_ghz = 1.0;
  int vector_lanes = 1;            ///< fp32 lanes per vector unit
  double flops_per_cycle_per_lane = 2.0;  ///< FMA units x 2 flops

  // Memory hierarchy, ordered L1 -> L2 -> L3 -> DRAM (last entry must have
  // capacity_bytes == 0, i.e. the infinite backing store).
  std::vector<CacheLevel> levels;

  // Overheads.
  double fork_join_us = 0;         ///< per parallel-region launch
  double loop_overhead_cycles = 0; ///< per innermost iteration (un-unrolled)
  double stage_call_overhead_cycles = 0;  ///< per compute-at invocation
  double icache_unroll_limit = 0;  ///< unroll depth beyond which i-cache thrashes

  /// Tunable auto-unroll depths (Appendix A.1: CPU {0,16,64,512},
  /// GPU {0,16,64,512,1024}). Index 0 must be 0 (no pragma).
  std::vector<int> unroll_depths;

  /// Multiplicative lognormal measurement-noise sigma (0 = deterministic).
  double noise_sigma = 0.0;

  /// Peak scalar flops/s of one core.
  double core_flops() const {
    return freq_ghz * 1e9 * vector_lanes * flops_per_cycle_per_lane;
  }

  int num_unroll_options() const { return static_cast<int>(unroll_depths.size()); }

  /// Empty string when consistent; else a diagnostic.
  std::string validate() const;

  /// Stable 64-bit hash of every field that affects simulated timings (name
  /// included).  Stamped into tuning records so a log replayed on a different
  /// machine model is detected instead of silently trusted.
  std::uint64_t fingerprint() const;

  /// The fingerprint's numeric components in comparable form (all entries
  /// positive): cores, frequency, vector width, flops/cycle/lane, innermost
  /// and total cache capacity, backing-store bandwidth, fork/join and loop
  /// overheads, unroll-option count.  Stamped into tuning records (field
  /// `hwv`) so experience transfer can score how similar the logging machine
  /// was to the tuning machine even when the exact config is unknown.
  std::vector<double> similarity_vector() const;

  /// Similarity of two `similarity_vector()`s in [0, 1]:
  /// exp(-mean |ln(a_i / b_i)|), i.e. 1.0 for identical machines, decaying
  /// with the geometric distance of each component.  Vectors of different
  /// lengths (different schema generations) score 0.
  static double similarity(const std::vector<double>& a,
                           const std::vector<double>& b);

  /// Peak fp32 flops/s encoded in a `similarity_vector()` (components 0-3:
  /// cores * GHz * lanes * flops/cycle/lane); 0 when the vector is too short.
  static double peak_flops_of(const std::vector<double>& v);

  /// CPU preset modeled after the paper's Intel Xeon 6226R (32 cores,
  /// 2.9 GHz, AVX-512).
  static HardwareConfig xeon_6226r();

  /// GPU-flavored preset modeled after an RTX 3090-class device: far wider
  /// parallelism, higher bandwidth, deeper unroll list.
  static HardwareConfig rtx3090();

  /// Tiny deterministic config for unit tests (no noise, simple numbers).
  static HardwareConfig test_config();

  /// The preset named `name`, the one name table every CLI and the daemon
  /// read: "xeon" or "xeon_6226r", "rtx3090" or "gpu", and "test".  On a
  /// match, sets `*canonical` (when given) to the preset's short name
  /// ("xeon", "rtx3090", "test"), which names a daemon's shard directory.
  /// nullopt for any other name, the empty one included.
  static std::optional<HardwareConfig> preset(const std::string& name,
                                              std::string* canonical = nullptr);

  /// The canonical preset names as error messages list them.
  static constexpr const char* kPresetNames = "xeon, rtx3090, test";
};

}  // namespace harl
