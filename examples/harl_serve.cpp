/// Tuning-as-a-service daemon: serve schedule queries from per-hardware
/// knowledge caches in microseconds and run admitted tuning jobs on a shared
/// fleet pool, over a versioned line-JSON protocol on 127.0.0.1 (see
/// docs/PROTOCOL.md).  SIGTERM/SIGINT drain gracefully: running jobs
/// checkpoint at their next round boundary and a restarted daemon resumes
/// them bit-identically from the same state directory.
///
///   harl_serve --state-dir=DIR [--port=N] [--max-concurrent=N]
///              [--default-budget=N] [--max-job-trials=N] [--refresh=N]
///              [--cross-refresh=N] [--value-model=PATH] [--beam-width=N]
///              [--sample-clusters=N] [--no-golden] [--replica]
///              [--watch-interval=MS] [--port-file=PATH] [--quiet]
///
///   --state-dir=DIR       durable root: per-hardware record logs + caches,
///                         the jobs.jsonl journal, and the `port` file
///   --port=N              TCP port on 127.0.0.1, 0-65535 (default 0 =
///                         ephemeral; the chosen port is written to DIR/port)
///   --max-concurrent=N    tuning jobs run at once, 1-256 (default 2)
///   --default-budget=N    trial budget a new tenant starts with, >= 0
///                         (default 100000; `hello` can raise it)
///   --max-job-trials=N    per-job trial cap at admission, >= 1
///                         (default 10000)
///   --refresh=N           in-run experience refresh period in rounds, >= 0
///                         (default 0 = off, keeping restart resume
///                         bit-identical)
///   --cross-refresh=N     cross-shard warm-up: refit one experience model
///                         per hardware shard every N rounds from every
///                         shard's records, >= 0 (default 0 = off; like
///                         --refresh, it changes later sessions' run
///                         identity)
///   --value-model=PATH    partial-schedule value model (harl_harvest value)
///                         shared by every admitted job; part of each job's
///                         run identity — a restarted daemon must pass the
///                         same model for bit-identical resume
///   --beam-width=N        value-guided beam width for admitted jobs, >= 1
///                         (default 16; needs --value-model)
///   --sample-clusters=N   measure only N representative candidates per
///                         round, crediting the rest via the cost model,
///                         >= 0 (default 0 = off)
///   --no-golden           report misses instead of golden advice (L3)
///   --replica             read-only replica: share a primary's state dir,
///                         serve query/stats only, and hot-reload each
///                         shard's published cache + experience model when
///                         the primary republishes them
///   --watch-interval=MS   replica poll cadence for published files, >= 1
///                         (default 100)
///   --port-file=PATH      write the bound port here (default DIR/port for
///                         a primary, nothing for a replica — replicas never
///                         clobber the primary's discovery file)
///   --quiet               suppress the startup banner
///   --help                print usage and exit
///
/// Exit codes: 0 clean shutdown, 1 setup error, 2 usage error (an unknown
/// flag, or a number that is not plain digits within the flag's range).

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/harl.hpp"
#include "server/server.hpp"
#include "util/parse.hpp"

namespace {

using namespace harl;

bool flag_value(const char* arg, const char* name, const char** value) {
  std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: harl_serve --state-dir=DIR [--port=N]\n"
               "                  [--max-concurrent=N] [--default-budget=N]\n"
               "                  [--max-job-trials=N] [--refresh=N]\n"
               "                  [--cross-refresh=N]\n"
               "                  [--value-model=PATH] [--beam-width=N]\n"
               "                  [--sample-clusters=N] [--no-golden]\n"
               "                  [--replica] [--watch-interval=MS]\n"
               "                  [--port-file=PATH] [--quiet] [--help]\n");
}

HarlServer* g_server = nullptr;

/// Async-signal-safe: one atomic store; serve_forever() does the drain.
void handle_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions opts;
  opts.tuning = quick_options(PolicyKind::kHarl);
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    bool parsed = true;
    if (flag_value(argv[i], "--state-dir", &v)) {
      opts.state_dir = v;
    } else if (flag_value(argv[i], "--port", &v)) {
      parsed = parse_int_flag("--port", v, 0, 65535, &opts.port);
    } else if (flag_value(argv[i], "--max-concurrent", &v)) {
      parsed = parse_int_flag("--max-concurrent", v, 1, 256, &opts.max_concurrent);
    } else if (flag_value(argv[i], "--default-budget", &v)) {
      parsed = parse_int_flag("--default-budget", v, 0, INT64_MAX, &opts.default_budget);
    } else if (flag_value(argv[i], "--max-job-trials", &v)) {
      parsed = parse_int_flag("--max-job-trials", v, 1, INT64_MAX, &opts.max_job_trials);
    } else if (flag_value(argv[i], "--refresh", &v)) {
      parsed = parse_int_flag("--refresh", v, 0, INT_MAX, &opts.refresh_period);
    } else if (flag_value(argv[i], "--cross-refresh", &v)) {
      parsed = parse_int_flag("--cross-refresh", v, 0, INT_MAX, &opts.cross_refresh);
    } else if (flag_value(argv[i], "--watch-interval", &v)) {
      parsed = parse_int_flag("--watch-interval", v, 1, INT_MAX, &opts.watch_interval_ms);
    } else if (flag_value(argv[i], "--port-file", &v)) {
      opts.port_file = v;
    } else if (std::strcmp(argv[i], "--replica") == 0) {
      opts.replica = true;
    } else if (flag_value(argv[i], "--value-model", &v)) {
      opts.value_model = v;
    } else if (flag_value(argv[i], "--beam-width", &v)) {
      parsed = parse_int_flag("--beam-width", v, 1, INT_MAX,
                              &opts.tuning.value_guide.beam_width);
    } else if (flag_value(argv[i], "--sample-clusters", &v)) {
      opts.tuning.value_guide.enabled = true;
      parsed = parse_int_flag("--sample-clusters", v, 0, INT_MAX,
                              &opts.tuning.value_guide.sample_clusters);
    } else if (std::strcmp(argv[i], "--no-golden") == 0) {
      opts.golden_advice = false;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      usage(stderr);
      return 2;
    }
    if (!parsed) return 2;
  }
  if (opts.state_dir.empty()) {
    usage(stderr);
    return 2;
  }
  const bool server_is_replica = opts.replica;

  HarlServer server(std::move(opts));
  g_server = &server;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);

  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "harl_serve: %s\n", error.c_str());
    return 1;
  }
  if (!quiet) {
    std::printf("harl_serve: %slistening on 127.0.0.1:%d\n",
                server_is_replica ? "replica " : "", server.port());
    ServerStats s = server.stats();
    if (s.jobs_resumed > 0) {
      std::printf("harl_serve: resumed %lld unfinished job(s) from the journal\n",
                  static_cast<long long>(s.jobs_resumed));
    }
    std::fflush(stdout);
  }

  server.serve_forever();

  if (!quiet) {
    ServerStats s = server.stats();
    std::printf(
        "harl_serve: drained (queries=%lld l1=%lld jobs done=%lld resumed=%lld)\n",
        static_cast<long long>(s.queries), static_cast<long long>(s.l1_hits),
        static_cast<long long>(s.jobs_completed),
        static_cast<long long>(s.jobs_resumed));
  }
  g_server = nullptr;
  return 0;
}
