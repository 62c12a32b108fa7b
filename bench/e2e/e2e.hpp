#pragma once

/// Shared pieces of the end-to-end benchmark (bench_e2e): workload
/// arguments, the report of metrics and output checks, the in-memory span
/// store of traced runs, and small statistics helpers.  bench_e2e reaches
/// the library only through its public headers.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace harl {
class ThreadPool;
}

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command-line surface of one bench_e2e process (one workload per process).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;        ///< measured time the workload aims for
  std::string trace_path;  ///< non-empty = traced run, spans written here
  std::string workdir;     ///< scratch directory for logs and daemon state
  bool smoke = false;      ///< tiny budgets and 1 s load phases
};

/// Metrics and output checks of one run.  A failed check makes bench_e2e
/// exit 3; every metric is printed with its unit.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  /// Records a failed check (with a reason) when `ok` is false.
  bool check(bool ok, const std::string& what);

  std::int64_t attempted = 0;  ///< operations tried: trials plus queries
  std::int64_t failed = 0;     ///< operations that failed

  bool correct() const { return failures_.empty(); }
  /// Human-readable lines on stderr, then one JSON object on stdout.
  void print(const Args& args) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
};

/// Spans of a traced run, kept in memory and written as JSONL at exit, one
/// span per line: {id, parent, name, start_us, end_us, round|req, replay}.
/// Times are microseconds since the tracer's origin.  Spans of one round or
/// request share its index.
class Tracer {
 public:
  enum class Key { kNone, kRound, kReq };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Returns the new span's id (ids start at 1; parent 0 = root).
  std::int64_t add(const char* name, std::int64_t parent, Clock::time_point start,
                   Clock::time_point end, Key key = Key::kNone,
                   std::int64_t index = -1, bool replay = false);
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::int64_t id, parent;
    const char* name;
    double start_us, end_us;
    Key key;
    std::int64_t index;
    bool replay;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The seed of the k-th tuning session or job of a run seeded `seed`.  The
/// library's generator adds its seed to a fixed state, so neighbouring seeds
/// such as seed*1000+k give searches that end alike; mixed seeds do not.
/// Below 2^52, so record logs and the wire protocol carry it exactly.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  return splitmix64(splitmix64(seed) + k) >> 12;
}

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
/// Median of `v` (the mean of the middle two for an even count); 0 if empty.
double median(std::vector<double> v);

/// Peak resident set size of this process, in MiB, since the start or the
/// last reset_peak_rss().
double peak_rss_mb();
/// Restarts the peak at the current resident set (Linux clear_refs).
void reset_peak_rss();

/// The workloads (tune.cpp, serve.cpp).  Each fills `report` and, when
/// `tracer` is non-null, records spans.
void run_tune_workload(const Args& args, harl::ThreadPool& pool, Report& report,
                       Tracer* tracer);
void run_serve_workload(const Args& args, harl::ThreadPool& pool, Report& report,
                        Tracer* tracer);

}  // namespace e2e
