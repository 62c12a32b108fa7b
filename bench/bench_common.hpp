#pragma once

/// Shared helpers for the paper-reproduction benchmark harnesses.
///
/// Every bench binary declares the common flags below (`--trials`, `--seed`,
/// `--paper`, `--csv`) plus its own on one `Flags` table, so `--help` lists
/// them all and a usage error exits 2.  Each prints the rows/series of its
/// figure/table as aligned ASCII tables.

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/harl.hpp"
#include "util/flags.hpp"

namespace harl::bench {

/// The binary's file name, for its usage line.
inline std::string program_name(const char* argv0) {
  std::string path = argv0;
  return path.substr(path.rfind('/') + 1);
}

struct BenchArgs {
  std::int64_t trials = 0;  ///< 0 = harness-specific default
  std::uint64_t seed = 42;
  bool paper = false;
  std::string csv_dir;

  /// Declares the common flags on `flags`.
  void declare(Flags* flags) {
    flags->add_int("--trials", "N", &trials, 1, INT64_MAX,
                   "trial budget per tuning run (default: scaled per harness)");
    flags->add_u64("--seed", "S", &seed, "base RNG seed (default 42)");
    flags->add_switch("--paper", &paper,
                      "the paper's full-scale Table 5 settings (slower)");
    flags->add_string("--csv", "DIR", &csv_dir, "also write each table as CSV into DIR");
  }

  /// The common flags alone, for harnesses that take no others.
  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    Flags flags(program_name(argv[0]));
    args.declare(&flags);
    flags.parse(argc, argv);
    return args;
  }

  SearchOptions options(PolicyKind kind) const {
    return paper ? paper_options(kind, seed) : quick_options(kind, seed);
  }

  void maybe_save(const Table& table, const std::string& name) const {
    if (csv_dir.empty()) return;
    std::string path = csv_dir + "/" + name + ".csv";
    if (!table.save_csv(path)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
    }
  }
};

/// Normalized performance as in the paper's Figures 5/8: inverse execution
/// time divided by the best inverse execution time in the comparison group.
inline double normalized_perf(double time_ms, double best_time_ms) {
  if (time_ms <= 0) return 0;
  return best_time_ms / time_ms;
}

}  // namespace harl::bench
