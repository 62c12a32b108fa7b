#include "hwsim/hardware_config.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/fnv.hpp"

namespace harl {

namespace {

void mix_double(Fnv1a& h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  h.mix(bits);
}

void mix_string(Fnv1a& h, const std::string& s) {
  h.mix_bytes(s);
  h.mix(0xffULL);  // terminator so "ab","c" != "a","bc"
}

}  // namespace

std::uint64_t HardwareConfig::fingerprint() const {
  Fnv1a h;
  mix_string(h, name);
  h.mix(static_cast<std::uint64_t>(num_cores));
  mix_double(h, freq_ghz);
  h.mix(static_cast<std::uint64_t>(vector_lanes));
  mix_double(h, flops_per_cycle_per_lane);
  for (const CacheLevel& l : levels) {
    mix_string(h, l.name);
    mix_double(h, l.capacity_bytes);
    mix_double(h, l.serve_bandwidth_gbps);
    h.mix(l.per_core ? 1 : 2);
  }
  mix_double(h, fork_join_us);
  mix_double(h, loop_overhead_cycles);
  mix_double(h, stage_call_overhead_cycles);
  mix_double(h, icache_unroll_limit);
  for (int d : unroll_depths) h.mix(static_cast<std::uint64_t>(d + 1));
  mix_double(h, noise_sigma);
  return h.value();
}

std::vector<double> HardwareConfig::similarity_vector() const {
  double inner_cap = 1.0;
  double total_cap = 1.0;
  double backing_bw = 1.0;
  if (!levels.empty()) {
    inner_cap = std::max(1.0, levels.front().capacity_bytes);
    backing_bw = std::max(1e-3, levels.back().serve_bandwidth_gbps);
    double sum = 0;
    for (const CacheLevel& l : levels) sum += l.capacity_bytes;
    total_cap = std::max(1.0, sum);
  }
  return {
      static_cast<double>(num_cores),
      freq_ghz,
      static_cast<double>(vector_lanes),
      flops_per_cycle_per_lane,
      inner_cap,
      total_cap,
      backing_bw,
      fork_join_us + 1.0,
      loop_overhead_cycles + 1.0,
      static_cast<double>(unroll_depths.size()),
  };
}

double HardwareConfig::similarity(const std::vector<double>& a,
                                  const std::vector<double>& b) {
  if (a.empty() || a.size() != b.size()) return 0.0;
  double dist = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] > 0) || !(b[i] > 0)) return 0.0;
    double r = std::log(a[i] / b[i]);
    dist += r < 0 ? -r : r;
  }
  return std::exp(-dist / static_cast<double>(a.size()));
}

double HardwareConfig::peak_flops_of(const std::vector<double>& v) {
  if (v.size() < 4) return 0.0;
  return v[0] * v[1] * 1e9 * v[2] * v[3];
}

std::string HardwareConfig::validate() const {
  std::ostringstream err;
  if (num_cores < 1) err << "num_cores < 1; ";
  if (freq_ghz <= 0) err << "freq_ghz <= 0; ";
  if (vector_lanes < 1) err << "vector_lanes < 1; ";
  if (levels.size() < 2) err << "need at least one cache level plus backing store; ";
  if (!levels.empty()) {
    if (levels.back().capacity_bytes != 0) {
      err << "last level must be the infinite backing store (capacity 0); ";
    }
    for (std::size_t i = 0; i + 1 < levels.size(); ++i) {
      if (levels[i].capacity_bytes <= 0) err << "cache level " << i << " capacity <= 0; ";
      if (i + 2 < levels.size() &&
          levels[i].capacity_bytes >= levels[i + 1].capacity_bytes) {
        err << "cache capacities not increasing at level " << i << "; ";
      }
    }
    for (const CacheLevel& l : levels) {
      if (l.serve_bandwidth_gbps <= 0) err << "level '" << l.name << "' bandwidth <= 0; ";
    }
  }
  if (unroll_depths.empty() || unroll_depths.front() != 0) {
    err << "unroll_depths must start with 0; ";
  }
  for (std::size_t i = 0; i + 1 < unroll_depths.size(); ++i) {
    if (unroll_depths[i] >= unroll_depths[i + 1]) err << "unroll_depths not increasing; ";
  }
  return err.str();
}

HardwareConfig HardwareConfig::xeon_6226r() {
  HardwareConfig hw;
  hw.name = "xeon_6226r";
  hw.num_cores = 32;
  hw.freq_ghz = 2.9;
  hw.vector_lanes = 16;             // AVX-512 fp32
  hw.flops_per_cycle_per_lane = 4;  // 2 FMA pipes x 2 flops
  hw.levels = {
      {"L1", 32.0 * 1024, 400.0, true},
      {"L2", 1024.0 * 1024, 150.0, true},
      {"L3", 22.0 * 1024 * 1024, 320.0, false},
      {"DRAM", 0, 110.0, false},
  };
  hw.fork_join_us = 4.0;
  hw.loop_overhead_cycles = 2.0;
  hw.stage_call_overhead_cycles = 60.0;
  hw.icache_unroll_limit = 128.0;
  hw.unroll_depths = {0, 16, 64, 512};
  hw.noise_sigma = 0.02;
  return hw;
}

HardwareConfig HardwareConfig::rtx3090() {
  HardwareConfig hw;
  hw.name = "rtx3090";
  hw.num_cores = 82;                // SMs
  hw.freq_ghz = 1.7;
  hw.vector_lanes = 32;             // warp lanes
  hw.flops_per_cycle_per_lane = 4;  // 128 fp32 cores per SM / 32 lanes x 2 flops... x2 ILP
  hw.levels = {
      {"SMEM", 128.0 * 1024, 3000.0, true},
      {"L2", 6.0 * 1024 * 1024, 2000.0, false},
      {"DRAM", 0, 936.0, false},
  };
  hw.fork_join_us = 8.0;            // kernel launch
  hw.loop_overhead_cycles = 1.0;
  hw.stage_call_overhead_cycles = 40.0;
  hw.icache_unroll_limit = 256.0;
  hw.unroll_depths = {0, 16, 64, 512, 1024};
  hw.noise_sigma = 0.02;
  return hw;
}

HardwareConfig HardwareConfig::test_config() {
  HardwareConfig hw;
  hw.name = "test";
  hw.num_cores = 4;
  hw.freq_ghz = 1.0;
  hw.vector_lanes = 4;
  hw.flops_per_cycle_per_lane = 2;
  hw.levels = {
      {"L1", 16.0 * 1024, 100.0, true},
      {"L2", 256.0 * 1024, 50.0, true},
      {"DRAM", 0, 10.0, false},
  };
  hw.fork_join_us = 1.0;
  hw.loop_overhead_cycles = 2.0;
  hw.stage_call_overhead_cycles = 50.0;
  hw.icache_unroll_limit = 64.0;
  hw.unroll_depths = {0, 4, 16, 64};
  hw.noise_sigma = 0.0;
  return hw;
}

std::optional<HardwareConfig> HardwareConfig::preset(const std::string& name,
                                                     std::string* canonical) {
  static const struct {
    const char* name;
    const char* canonical;
    HardwareConfig (*make)();
  } kPresets[] = {
      {"xeon", "xeon", &xeon_6226r},      {"xeon_6226r", "xeon", &xeon_6226r},
      {"rtx3090", "rtx3090", &rtx3090},   {"gpu", "rtx3090", &rtx3090},
      {"test", "test", &test_config},
  };
  for (const auto& p : kPresets) {
    if (name != p.name) continue;
    if (canonical != nullptr) *canonical = p.canonical;
    return p.make();
  }
  return std::nullopt;
}

}  // namespace harl
