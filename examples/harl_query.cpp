/// Zero-search serving front end: answer "best schedule for this task on
/// this hardware" from a knowledge cache, without spinning up a tuning
/// session — locally from cache/log files, or remotely from a running
/// harl_serve daemon over its line-JSON protocol (docs/PROTOCOL.md).
///
///   harl_query --task=NETWORK/SUBGRAPH [flags]
///       Local mode: load the cache file (if given), fold in the record
///       logs, optionally attach a pretrained GBDT for L2 re-ranking, and
///       serve the query:
///       L1 = exact (network, task, hardware) best rebuilt from its record,
///       L2 = structural near-miss adapted to the query shape,
///       L3 = deterministic golden-advice default on a cold miss.
///       `--task` names builtin workloads, e.g. bert_b1/GEMM-I (see
///       harl_harvest stats).
///
///   harl_query --connect=HOST:PORT [flags]
///       Client mode: talk to a harl_serve daemon (--connect=PORT implies
///       host 127.0.0.1).  Queries print the same tier/record lines as
///       local mode plus `cache_gen:`, the generation fingerprint of the
///       daemon's cache that answered; tuning requests are admitted against
///       the tenant's trial budget and can be streamed to completion.
///       `--weight` sets the tenant's fair-queue weight: dispatch shares
///       under overload are weight-proportional.
///
/// `--logs` and `--dir` add logs in command-line order.  `--expect-best`
/// checks that the answer is an L1 hit whose record is byte-identical to the
/// best log record (the CI round-trip gate; with --connect, against the
/// daemon's logs given by --logs/--dir).  `--help` lists every flag.
///
/// Exit codes: 0 served, 1 setup/remote error, 2 usage error, 4 watched job
/// stopped without completing, 6 --expect-best mismatch.

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/harl.hpp"
#include "serve/knowledge_cache.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "util/flags.hpp"
#include "util/parse.hpp"

namespace {

using namespace harl;

/// The minimum record under (time_ms asc, serialized asc) the logs hold for
/// this (network, task, hardware) triple — the --expect-best reference.
std::string best_log_record(const std::vector<std::string>& logs,
                            const std::string& net_name,
                            const std::string& sub_name,
                            std::uint64_t hw_fp) {
  std::string best;
  double best_time = 0;
  for (const std::string& log : logs) {
    for (const TuningRecord& rec : read_records(log)) {
      if (rec.network != net_name || rec.task != sub_name ||
          rec.hardware_fp != hw_fp || !(rec.time_ms > 0)) {
        continue;
      }
      std::string line = record_to_json(rec);
      if (best.empty() || rec.time_ms < best_time ||
          (rec.time_ms == best_time && line < best)) {
        best_time = rec.time_ms;
        best = std::move(line);
      }
    }
  }
  return best;
}

/// Byte-identity gate shared by local and remote --expect-best: the served
/// answer must be L1 and its record must equal the best log record.
int check_expect_best(const std::vector<std::string>& logs,
                      const std::string& net_name, const std::string& sub_name,
                      std::uint64_t hw_fp, const std::string& tier,
                      const std::string& served_record) {
  if (tier != "L1") {
    std::fprintf(stderr, "expect-best: answer came from %s, not L1\n",
                 tier.c_str());
    return 6;
  }
  std::string best = best_log_record(logs, net_name, sub_name, hw_fp);
  if (best.empty()) {
    std::fprintf(stderr, "expect-best: the logs hold no record for %s/%s\n",
                 net_name.c_str(), sub_name.c_str());
    return 6;
  }
  if (served_record != best) {
    std::fprintf(stderr,
                 "expect-best: served record differs from the log best\n"
                 "  served: %s\n  best:   %s\n",
                 served_record.c_str(), best.c_str());
    return 6;
  }
  std::printf("expect-best: L1 bit-identity OK\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Remote (client) mode
// ---------------------------------------------------------------------------

/// Every flag's value; the client fields are read in client mode only.
struct QueryArgs {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string tenant;
  std::int64_t budget = -1;
  double weight = 0;
  std::string task_spec;
  std::string hw = "xeon";
  std::string tune_network;
  std::int64_t batch = 1;
  std::int64_t trials = 0;
  std::uint64_t seed = 42;
  std::string policy;
  bool wait = false;
  std::int64_t watch_job = -1;
  std::int64_t status_job = -1;
  bool stats = false;
  bool tier_stats = false;
  bool do_shutdown = false;
  int repeat = 1;
  bool expect_best = false;
  std::vector<std::string> logs;
};

/// One request/reply round trip; prints a diagnostic and returns false on a
/// transport or protocol failure, or an error reply.
bool remote_call(LineClient& cli, const Request& req, Response* resp) {
  std::string err, line;
  if (!cli.send_line(request_to_json(req), &err) ||
      !cli.recv_line(&line, &err)) {
    std::fprintf(stderr, "remote: %s\n", err.c_str());
    return false;
  }
  if (!response_from_json(line, resp, &err)) {
    std::fprintf(stderr, "remote: bad reply: %s\n", err.c_str());
    return false;
  }
  if (!resp->ok && resp->event.empty()) {
    std::fprintf(stderr, "remote: %s\n", resp->error.c_str());
    return false;
  }
  return true;
}

/// Stream a job's round/best events until its terminal "done" event.
int remote_watch(LineClient& cli, std::int64_t job) {
  Request req;
  req.type = RequestType::kSubscribe;
  req.job = job;
  std::string err;
  if (!cli.send_line(request_to_json(req), &err)) {
    std::fprintf(stderr, "remote: %s\n", err.c_str());
    return 1;
  }
  for (;;) {
    std::string line;
    if (!cli.recv_line(&line, &err, 600000)) {
      std::fprintf(stderr, "remote: %s\n", err.c_str());
      return 1;
    }
    Response ev;
    if (!response_from_json(line, &ev, &err)) {
      std::fprintf(stderr, "remote: bad event: %s\n", err.c_str());
      return 1;
    }
    if (!ev.ok) {
      std::fprintf(stderr, "remote: %s\n", ev.error.c_str());
      return 1;
    }
    if (ev.event == "round") {
      std::printf("job %lld round %lld  task=%s trials=%lld",
                  static_cast<long long>(ev.job),
                  static_cast<long long>(ev.round), ev.task.c_str(),
                  static_cast<long long>(ev.trials_after));
      if (ev.net_latency_ms >= 0) {
        std::printf("  net latency %s ms",
                    json::format_double(ev.net_latency_ms).c_str());
      }
      std::printf("\n");
    } else if (ev.event == "best") {
      std::printf("job %lld new best  task=%s %s ms\n",
                  static_cast<long long>(ev.job), ev.task.c_str(),
                  json::format_double(ev.est_time_ms).c_str());
    } else if (ev.event == "done") {
      std::printf("job %lld %s", static_cast<long long>(ev.job),
                  ev.state.c_str());
      if (ev.trials_used >= 0) {
        std::printf("  trials_used=%lld", static_cast<long long>(ev.trials_used));
      }
      if (ev.latency_ms >= 0) {
        std::printf("  net latency %s ms",
                    json::format_double(ev.latency_ms).c_str());
      }
      std::printf("\n");
      std::fflush(stdout);
      return ev.state == "done" ? 0 : 4;
    }
    std::fflush(stdout);
  }
}

int remote_main(const QueryArgs& args) {
  LineClient cli;
  std::string err;
  if (!cli.connect(args.host, args.port, &err)) {
    std::fprintf(stderr, "remote: %s\n", err.c_str());
    return 1;
  }

  if (!args.tenant.empty() || args.budget >= 0 || args.weight > 0) {
    Request req;
    req.type = RequestType::kHello;
    req.tenant = args.tenant.empty() ? "default" : args.tenant;
    req.budget = args.budget;
    req.weight = args.weight;
    Response resp;
    if (!remote_call(cli, req, &resp)) return 1;
  }

  if (args.stats || args.tier_stats) {
    Request req;
    req.type = RequestType::kStats;
    Response r;
    if (!remote_call(cli, req, &r)) return 1;
    if (args.stats) {
      std::printf(
          "server stats: queries=%lld l1=%lld l2=%lld l3=%lld miss=%lld\n"
          "jobs: admitted=%lld rejected=%lld completed=%lld resumed=%lld "
          "tenants=%lld\n",
          static_cast<long long>(r.queries), static_cast<long long>(r.l1_hits),
          static_cast<long long>(r.l2_hits), static_cast<long long>(r.l3_hits),
          static_cast<long long>(r.misses),
          static_cast<long long>(r.jobs_admitted),
          static_cast<long long>(r.jobs_rejected),
          static_cast<long long>(r.jobs_completed),
          static_cast<long long>(r.jobs_resumed),
          static_cast<long long>(r.tenants));
    }
    if (args.tier_stats) {
      // The server-side twin of local --tier-stats: tier hits plus the
      // freshness counters (publishes, retired bests, replica hot-reloads).
      std::printf(
          "tier stats: queries=%lld l1=%lld l2=%lld l3=%lld miss=%lld "
          "refreshes=%lld invalidations=%lld reloads=%lld role=%s\n",
          static_cast<long long>(r.queries), static_cast<long long>(r.l1_hits),
          static_cast<long long>(r.l2_hits), static_cast<long long>(r.l3_hits),
          static_cast<long long>(r.misses),
          static_cast<long long>(r.refreshes),
          static_cast<long long>(r.invalidations),
          static_cast<long long>(r.reloads),
          r.role.empty() ? "?" : r.role.c_str());
    }
  }

  if (args.status_job >= 0) {
    Request req;
    req.type = RequestType::kStatus;
    req.job = args.status_job;
    Response r;
    if (!remote_call(cli, req, &r)) return 1;
    std::printf("job %lld %s", static_cast<long long>(r.job), r.state.c_str());
    if (r.trials_used >= 0) {
      std::printf("  trials_used=%lld", static_cast<long long>(r.trials_used));
    }
    if (r.latency_ms >= 0) {
      std::printf("  net latency %s ms",
                  json::format_double(r.latency_ms).c_str());
    }
    std::printf("\n");
  }

  if (!args.tune_network.empty()) {
    Request req;
    req.type = RequestType::kTune;
    req.tenant = args.tenant.empty() ? "default" : args.tenant;
    req.network = args.tune_network;
    req.batch = args.batch;
    req.trials = args.trials;
    req.seed = args.seed;
    req.policy = args.policy;
    req.hw = args.hw;
    Response r;
    if (!remote_call(cli, req, &r)) return 1;
    std::printf("job %lld admitted (%s)\n", static_cast<long long>(r.job),
                r.state.c_str());
    std::fflush(stdout);
    if (args.wait) return remote_watch(cli, r.job);
  }

  if (args.watch_job >= 0) {
    int rc = remote_watch(cli, args.watch_job);
    if (rc != 0) return rc;
  }

  if (!args.task_spec.empty()) {
    std::size_t slash = args.task_spec.find('/');
    std::string net_name = args.task_spec.substr(0, slash);
    std::string sub_name = args.task_spec.substr(slash + 1);
    Request req;
    req.type = RequestType::kQuery;
    req.network = net_name;
    req.task = sub_name;
    req.hw = args.hw;
    int repeat = args.repeat;
    Response r;
    std::vector<double> micros;
    micros.reserve(static_cast<std::size_t>(repeat));
    for (int i = 0; i < repeat; ++i) {
      auto t0 = std::chrono::steady_clock::now();
      if (!remote_call(cli, req, &r)) return 1;
      auto t1 = std::chrono::steady_clock::now();
      micros.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    std::printf("query: %s/%s on %s (remote %s:%d)\n", net_name.c_str(),
                sub_name.c_str(), args.hw.c_str(), args.host.c_str(),
                args.port);
    std::printf("tier: %s\n", r.tier.c_str());
    if (r.tier == "miss") {
      std::printf("no knowledge for this task; submit a tune request\n");
    } else {
      std::printf("schedule fingerprint: %llu\n",
                  static_cast<unsigned long long>(r.schedule_fp));
      if (r.score >= 0) {
        std::printf("score: %s\n", json::format_double(r.score).c_str());
      }
      if (r.est_time_ms >= 0) {
        std::printf("est_time_ms: %s\n",
                    json::format_double(r.est_time_ms).c_str());
      }
      if (!r.record.empty()) std::printf("record: %s\n", r.record.c_str());
    }
    if (r.cache_gen != 0) {
      std::printf("cache_gen: %llu\n", static_cast<unsigned long long>(r.cache_gen));
    }
    std::sort(micros.begin(), micros.end());
    std::printf("lookup: server %s us, round-trip median %.1f us over %d "
                "repeat(s)\n",
                r.serve_us >= 0 ? json::format_double(r.serve_us).c_str() : "?",
                micros[micros.size() / 2], repeat);
    if (args.expect_best) {
      std::optional<HardwareConfig> hw = HardwareConfig::preset(args.hw);
      if (!hw) {
        std::fprintf(stderr, "unknown --hw=%s (%s)\n",
                     args.hw.c_str(), HardwareConfig::kPresetNames);
        return 1;
      }
      if (args.logs.empty()) {
        std::fprintf(stderr,
                     "expect-best: remote mode needs --logs/--dir pointing at "
                     "the daemon's record logs\n");
        return 6;
      }
      return check_expect_best(args.logs, net_name, sub_name, hw->fingerprint(),
                               r.tier, r.record);
    }
  }

  if (args.do_shutdown) {
    Request req;
    req.type = RequestType::kShutdown;
    Response r;
    if (!remote_call(cli, req, &r)) return 1;
    std::printf("shutdown acknowledged\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cache_path, model_path, save_path, connect_spec;
  int topk = 0;
  bool no_golden = false;
  QueryArgs args;

  auto add_log = [&](const std::string& log) { args.logs.push_back(log); };
  Flags flags("harl_query");
  flags.add_string("--task", "NETWORK/SUBGRAPH", &args.task_spec,
                   "what to serve, e.g. bert_b1/GEMM-I");
  flags.add_string("--hw", "NAME", &args.hw, "target hardware preset (default xeon)");
  flags.add_string("--cache", "FILE", &cache_path,
                   "knowledge-cache JSON to load before the logs");
  flags.add_each("--logs", "LOG", add_log, "a tuning log to fold in (repeatable)");
  flags.add_each("--dir", "DIR",
                 [&](const std::string& dir) {
                   std::string error;
                   for (std::string& f : jsonl_files(dir, &error)) add_log(f);
                   if (!error.empty()) std::fprintf(stderr, "%s\n", error.c_str());
                 },
                 "fold in every *.jsonl under DIR (sorted)");
  flags.add_string("--model", "FILE", &model_path,
                   "pretrained GBDT re-ranking L2 candidates");
  flags.add_string("--save-cache", "FILE", &save_path,
                   "write the folded cache; with no --task, exit after");
  flags.add_int("--topk", "N", &topk, 1, INT_MAX, "records kept per cache entry");
  flags.add_int("--repeat", "N", &args.repeat, 1, INT_MAX,
                "serve N times, report the median");
  flags.add_switch("--tier-stats", &args.tier_stats, "print tier hit + freshness counters");
  flags.add_switch("--expect-best", &args.expect_best,
                   "exit 6 unless L1 matches the best log record");
  flags.add_switch("--no-golden", &no_golden, "report a miss instead of golden advice");
  flags.add_string("--connect", "HOST:PORT", &connect_spec,
                   "client mode: the daemon (PORT alone: 127.0.0.1)");
  flags.add_string("--tenant", "NAME", &args.tenant,
                   "client: tenant to act as (default \"default\")");
  flags.add_int("--budget", "N", &args.budget, 0, INT64_MAX,
                "client: set/raise the tenant's trial budget");
  flags.add_double("--weight", "W", &args.weight, /*positive=*/true,
                   "client: the tenant's fair-queue weight (default 1.0)");
  flags.add_string("--tune", "NETWORK", &args.tune_network,
                   "client: admit a tuning job for this base network");
  flags.add_int("--batch", "N", &args.batch, 1, kMaxBatch,
                "client: batch size (default 1)");
  flags.add_int("--trials", "N", &args.trials, 1, INT64_MAX,
                "client: the job's trial budget");
  flags.add_u64("--seed", "N", &args.seed, "client: the job's seed (default 42)");
  flags.add_string("--policy", "NAME", &args.policy, "client: the job's search policy");
  flags.add_switch("--wait", &args.wait,
                   "client: after --tune, stream rounds until the end");
  flags.add_int("--watch", "JOB", &args.watch_job, 1, INT64_MAX,
                "client: stream a job's events until it ends");
  flags.add_int("--status", "JOB", &args.status_job, 1, INT64_MAX,
                "client: print one job's state and result");
  flags.add_switch("--stats", &args.stats, "client: print server-wide counters");
  flags.add_switch("--shutdown", &args.do_shutdown, "client: drain and stop the daemon");
  flags.parse(argc, argv);

  std::size_t slash = args.task_spec.find('/');
  if (!args.task_spec.empty() &&
      (slash == std::string::npos || slash == 0 || slash + 1 == args.task_spec.size())) {
    Flags::fail("--task wants NETWORK/SUBGRAPH, got \"" + args.task_spec + "\"");
  }
  if (!connect_spec.empty()) {
    std::size_t colon = connect_spec.find(':');
    std::uint64_t port = 0;
    if (colon != std::string::npos) args.host = connect_spec.substr(0, colon);
    const char* port_text = connect_spec.c_str() + (colon == std::string::npos ? 0 : colon + 1);
    if (!parse_u64(port_text, &port) || port < 1 || port > 65535) {
      Flags::fail("--connect wants HOST:PORT or PORT (1-65535), got \"" + connect_spec +
                  "\"");
    }
    args.port = static_cast<int>(port);
    return remote_main(args);
  }
  if (!args.tune_network.empty() || args.watch_job >= 0 ||
      args.status_job >= 0 || args.stats || args.do_shutdown ||
      args.weight > 0) {
    Flags::fail("that flag needs --connect=HOST:PORT");
  }
  if (args.task_spec.empty() && save_path.empty()) {
    Flags::fail("nothing to do: want --task=NETWORK/SUBGRAPH or --save-cache=FILE");
  }

  std::optional<HardwareConfig> hw = HardwareConfig::preset(args.hw);
  if (!hw) {
    std::fprintf(stderr, "unknown --hw=%s (%s)\n",
                 args.hw.c_str(), HardwareConfig::kPresetNames);
    return 1;
  }

  KnowledgeCacheOptions opts;
  if (topk > 0) opts.top_k = topk;
  opts.golden_advice = !no_golden;
  KnowledgeCache cache(opts);

  if (!cache_path.empty()) {
    std::string error;
    if (!load_cache(cache_path, &cache, &error)) {
      std::fprintf(stderr, "cannot load cache %s: %s\n", cache_path.c_str(),
                   error.c_str());
      return 1;
    }
    std::printf("cache: %s (%zu entries, %zu records, fp %llu)\n",
                cache_path.c_str(), cache.num_entries(), cache.num_records(),
                static_cast<unsigned long long>(cache_fingerprint(cache)));
  }
  for (const std::string& log : args.logs) {
    // Fold record by record instead of insert_log, so malformed lines get a
    // path:line diagnostic here (the cache itself rejects failed records).
    std::vector<RecordReadError> errors;
    std::size_t added = 0;
    for (const TuningRecord& rec : read_records(log, &errors)) {
      if (cache.insert(rec)) ++added;
    }
    std::printf("  %-40s +%zu records\n", log.c_str(), added);
    for (const RecordReadError& e : errors) {
      std::fprintf(stderr, "%s:%zu: skipped: %s\n", log.c_str(), e.line_number,
                   e.message.c_str());
    }
  }
  if (!model_path.empty()) {
    auto model = std::make_shared<Gbdt>();
    std::string error;
    if (!load_gbdt(model_path, model.get(), &error)) {
      std::fprintf(stderr, "cannot load model %s: %s\n", model_path.c_str(),
                   error.c_str());
      return 1;
    }
    cache.set_model(std::move(model));
  }
  if (!save_path.empty()) {
    std::string error;
    if (!save_cache(cache, save_path, &error)) {
      std::fprintf(stderr, "cannot save cache %s: %s\n", save_path.c_str(),
                   error.c_str());
      return 1;
    }
    std::printf("cache saved: %s (%zu entries, %zu records, fp %llu)\n",
                save_path.c_str(), cache.num_entries(), cache.num_records(),
                static_cast<unsigned long long>(cache_fingerprint(cache)));
    if (args.task_spec.empty()) return 0;
  }

  std::string net_name = args.task_spec.substr(0, slash);
  std::string sub_name = args.task_spec.substr(slash + 1);
  TaskResolver resolver = make_builtin_resolver();
  const Subgraph* graph = resolver(net_name, sub_name);
  if (graph == nullptr) {
    std::fprintf(stderr, "unknown task %s/%s (builtin workloads only)\n",
                 net_name.c_str(), sub_name.c_str());
    return 1;
  }

  ServeResult result;
  std::vector<double> micros;
  micros.reserve(static_cast<std::size_t>(args.repeat));
  for (int r = 0; r < args.repeat; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    result = cache.serve(net_name, *graph, *hw);
    auto t1 = std::chrono::steady_clock::now();
    micros.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }

  std::printf("query: %s/%s on %s (fp %llu)\n", net_name.c_str(),
              sub_name.c_str(), hw->name.c_str(),
              static_cast<unsigned long long>(hw->fingerprint()));
  std::printf("tier: %s\n", serve_tier_name(result.tier));
  if (result.tier == ServeTier::kMiss) {
    std::printf("no knowledge for this task; run a tuning session\n");
  } else {
    std::printf("schedule fingerprint: %llu\n",
                static_cast<unsigned long long>(result.schedule.fingerprint()));
    if (result.tier != ServeTier::kL3) {
      std::printf("score: %s\n", json::format_double(result.score).c_str());
      std::printf("est_time_ms: %s\n",
                  json::format_double(result.est_time_ms).c_str());
      std::printf("record: %s\n", result.record_json.c_str());
    }
    std::printf("schedule:\n%s", result.schedule.to_string().c_str());
  }
  std::sort(micros.begin(), micros.end());
  std::printf("lookup: median %.1f us over %d repeat(s)\n",
              micros[micros.size() / 2], args.repeat);

  if (args.tier_stats) {
    ServeStats s = cache.stats();
    std::printf(
        "tier stats: queries=%zu l1=%zu l2=%zu l3=%zu miss=%zu inserts=%zu "
        "duplicates=%zu evictions=%zu rejected=%zu refreshes=%zu "
        "invalidations=%zu\n",
        s.queries, s.l1_hits, s.l2_hits, s.l3_hits, s.misses, s.inserts,
        s.duplicates, s.evictions, s.rejected, s.refreshes, s.invalidations);
  }

  if (args.expect_best) {
    // The CI round-trip contract: the answer must be an L1 hit whose record
    // is byte-identical to the best record the logs hold for this triple.
    return check_expect_best(args.logs, net_name, sub_name, hw->fingerprint(),
                             serve_tier_name(result.tier), result.record_json);
  }
  return 0;
}
