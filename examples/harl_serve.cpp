/// Tuning-as-a-service daemon: serve schedule queries from per-hardware
/// knowledge caches in microseconds and run admitted tuning jobs on a shared
/// fleet pool, over a versioned line-JSON protocol on 127.0.0.1 (see
/// docs/PROTOCOL.md).  SIGTERM/SIGINT drain gracefully: running jobs
/// checkpoint at their next round boundary and a restarted daemon resumes
/// them bit-identically from the same state directory.
///
///   harl_serve --state-dir=DIR [flags]
///
/// `--state-dir` is the durable root: per-hardware record logs and caches,
/// the jobs.jsonl journal and the `port` file.  `--refresh`,
/// `--cross-refresh` and `--value-model` are part of each job's run
/// identity: a restarted daemon must pass the same ones for a bit-identical
/// resume.  `--replica` serves a primary's state dir read-only and
/// hot-reloads each shard's published cache and experience model when the
/// primary republishes them; it writes no port file unless `--port-file`
/// asks, so it never clobbers the primary's.  `--help` lists every flag.
///
/// Exit codes: 0 clean shutdown, 1 setup error, 2 usage error.

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/harl.hpp"
#include "server/server.hpp"
#include "util/flags.hpp"

namespace {

using namespace harl;

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
  bool no_golden = false;

  Flags flags("harl_serve");
  flags.add_string("--state-dir", "DIR", &opts.state_dir,
                   "durable root: record logs, caches, job journal (required)");
  flags.add_int("--port", "N", &opts.port, 0, 65535,
                "TCP port on 127.0.0.1 (default 0 = ephemeral)");
  flags.add_int("--max-concurrent", "N", &opts.max_concurrent, 1, 256,
                "tuning jobs run at once (default 2)");
  flags.add_int("--default-budget", "N", &opts.default_budget, 0, INT64_MAX,
                "trial budget a new tenant starts with (default 100000)");
  flags.add_int("--max-job-trials", "N", &opts.max_job_trials, 1, INT64_MAX,
                "per-job trial cap at admission (default 10000)");
  flags.add_int("--refresh", "N", &opts.refresh_period, 0, INT_MAX,
                "in-run experience refresh period in rounds (0 = off)");
  flags.add_int("--cross-refresh", "N", &opts.cross_refresh, 0, INT_MAX,
                "refit one model per shard from every shard (0 = off)");
  flags.add_string("--value-model", "PATH", &opts.value_model,
                   "partial-schedule value model shared by every job");
  flags.add_int("--beam-width", "N", &opts.tuning.value_guide.beam_width, 1, INT_MAX,
                "value-guided beam width (default 16)");
  flags.add_int("--sample-clusters", "N", &opts.tuning.value_guide.sample_clusters, 0,
                INT_MAX, "measure only N representatives per round (0 = off)");
  flags.add_switch("--no-golden", &no_golden,
                   "report misses instead of golden advice (L3)");
  flags.add_switch("--replica", &opts.replica,
                   "read-only replica of a primary's state dir");
  flags.add_int("--watch-interval", "MS", &opts.watch_interval_ms, 1, INT_MAX,
                "replica poll cadence for published files (default 100)");
  flags.add_string("--port-file", "PATH", &opts.port_file,
                   "write the bound port here (default DIR/port on a primary)");
  flags.add_switch("--quiet", &quiet, "suppress the startup banner");
  flags.parse(argc, argv);
  if (flags.given("--sample-clusters")) opts.tuning.value_guide.enabled = true;
  if (no_golden) opts.golden_advice = false;
  if (opts.state_dir.empty()) Flags::fail("--state-dir=DIR is required");
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
