#pragma once

/// Shared helpers for the paper-reproduction benchmark harnesses.
///
/// Every bench binary accepts:
///   --trials N   measurement-trial budget per tuning run, a positive integer
///                (default: scaled per harness)
///   --seed S     base RNG seed, an unsigned 64-bit integer
///   --paper      use the paper's full-scale Table 5 settings (slower)
///   --csv DIR    also write each table as CSV into DIR
/// and prints the rows/series of its figure/table as aligned ASCII tables.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/harl.hpp"
#include "util/parse.hpp"

namespace harl::bench {

struct BenchArgs {
  std::int64_t trials = 0;  ///< 0 = harness-specific default
  std::uint64_t seed = 42;
  bool paper = false;
  std::string csv_dir;

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      auto next = [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", flag);
          std::exit(2);
        }
        return argv[++i];
      };
      if (std::strcmp(argv[i], "--trials") == 0) {
        const char* v = next("--trials");
        const char* end = parse_positive(v, &args.trials);
        if (end == nullptr || *end != '\0') {
          std::fprintf(stderr, "bad --trials %s: want a positive integer\n", v);
          std::exit(2);
        }
      } else if (std::strcmp(argv[i], "--seed") == 0) {
        const char* v = next("--seed");
        if (!parse_u64(v, &args.seed)) {
          std::fprintf(stderr, "bad --seed %s: want an unsigned 64-bit integer\n", v);
          std::exit(2);
        }
      } else if (std::strcmp(argv[i], "--paper") == 0) {
        args.paper = true;
      } else if (std::strcmp(argv[i], "--csv") == 0) {
        args.csv_dir = next("--csv");
      } else if (std::strcmp(argv[i], "--help") == 0) {
        std::printf("flags: --trials N --seed S --paper --csv DIR\n");
        std::exit(0);
      }
    }
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
