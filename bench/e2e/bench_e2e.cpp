/// bench_e2e, the end-to-end benchmark: runs one named workload per process,
/// prints every metric with its name and unit, checks the outputs, and exits
/// 3 when a check fails (2 on a usage or set-up error).
///
///   bench_e2e --workload=NAME --seed=S --workdir=DIR [--seconds=N]
///             [--trace=PATH] [--smoke]
///
/// Workloads: tune-bert-harl, tune-resnet50-ansor-rr, serve-read,
/// serve-read-write (see README.md next to this file).  With --trace the run
/// also times each layer from outside the library and writes its spans to
/// PATH as JSONL.  The last line of stdout is one JSON object:
///   {"workload":..., "seed":..., "correct":..., "attempted":..., "failed":...,
///    "checks_failed":[...], "metrics":{NAME:{"value":V,"unit":U}, ...}}

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "e2e.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

bool Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
  return ok;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::print(const Args& args) const {
  for (const auto& [name, m] : metrics_) {
    std::fprintf(stderr, "  %-30s %18.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::fprintf(stderr, "  attempted %lld, failed %lld\n", static_cast<long long>(attempted),
               static_cast<long long>(failed));
  for (const std::string& f : failures_) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

  std::string out = "{\"workload\":" + json_string(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"correct\":" + (correct() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"checks_failed\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? "," : "") + json_string(failures_[i]);
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out += (first ? "" : ",") + json_string(name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::int64_t Tracer::add(const char* name, std::int64_t parent, Clock::time_point start,
                         Clock::time_point end, Key key, std::int64_t index, bool replay) {
  const std::int64_t id = static_cast<std::int64_t>(spans_.size()) + 1;
  spans_.push_back(
      Span{id, parent, name, us_between(origin_, start), us_between(origin_, end), key, index, replay});
  return id;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f, "{\"id\":%lld,\"parent\":%lld,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent), s.name,
                 s.start_us, s.end_us);
    if (s.key != Key::kNone) {
      std::fprintf(f, ",\"%s\":%lld", s.key == Key::kRound ? "round" : "req",
                   static_cast<long long>(s.index));
    }
    std::fprintf(f, ",\"replay\":%s}\n", s.replay ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(v.begin(), mid)) / 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  bool ok = f != nullptr && std::fputs("5", f) >= 0;
  if (f != nullptr) ok &= std::fclose(f) == 0;
  if (!ok) throw std::runtime_error("cannot reset the peak resident set through /proc/self/clear_refs");
}

}  // namespace e2e

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload=NAME --seed=S --workdir=DIR [--seconds=N]\n"
               "                 [--trace=PATH] [--smoke]\n"
               "workloads: tune-bert-harl tune-resnet50-ansor-rr serve-read serve-read-write\n",
               why);
  return 2;
}

bool flag_value(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (flag_value(argv[i], "--workload", &v)) {
      args.workload = v;
    } else if (flag_value(argv[i], "--seed", &v)) {
      char* end = nullptr;
      args.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return usage("--seed needs a non-negative integer");
    } else if (flag_value(argv[i], "--seconds", &v)) {
      args.seconds = std::atoi(v.c_str());
      if (args.seconds < 1 || args.seconds > 600) return usage("--seconds must be in [1, 600]");
    } else if (flag_value(argv[i], "--trace", &v)) {
      args.trace_path = v;
    } else if (flag_value(argv[i], "--workdir", &v)) {
      args.workdir = v;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else {
      return usage((std::string("unknown argument ") + argv[i]).c_str());
    }
  }
  if (args.workload.empty() || args.workdir.empty()) {
    return usage("--workload and --workdir are required");
  }
  if (::mkdir(args.workdir.c_str(), 0755) != 0 && errno != EEXIST) {
    return usage(("cannot create workdir " + args.workdir).c_str());
  }
  if (args.smoke) args.seconds = 1;
  harl::set_log_level(harl::LogLevel::kError);

  const e2e::Clock::time_point origin = e2e::Clock::now();
  e2e::Tracer tracer(origin);
  e2e::Tracer* trace = args.trace_path.empty() ? nullptr : &tracer;
  e2e::Report report;
  try {
    // parallel_for runs on the workers and the calling thread, so this many
    // workers keep at most min(nproc, 4) threads computing at once.
    harl::ThreadPool pool(static_cast<std::size_t>(std::max(1, std::min(cpu_count(), 4) - 1)));
    if (args.workload.rfind("tune-", 0) == 0) {
      e2e::run_tune_workload(args, pool, report, trace);
    } else if (args.workload.rfind("serve-", 0) == 0) {
      e2e::run_serve_workload(args, pool, report, trace);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: set-up error: %s\n", e.what());
    return 2;
  }
  report.set("peak_rss_mb", e2e::peak_rss_mb(), "MB");
  if (trace != nullptr && !tracer.write(args.trace_path)) {
    report.check(false, "cannot write trace " + args.trace_path);
  }
  report.print(args);
  return report.correct() ? 0 : 3;
}
