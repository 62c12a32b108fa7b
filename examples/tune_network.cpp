/// End-to-end network tuning with durable record logs.
///
/// Default mode reproduces the Table-4-style HARL-vs-Ansor comparison on
/// BERT.  With `--policy=` it tunes one named policy (any name registered in
/// the PolicyRegistry), and with `--log=` the run becomes durable: every
/// measured record is appended to a JSONL log, and re-running the same
/// command resumes from the log bit-identically instead of starting over.
///
///   ./build/tune_network [trials]
///       [--trials=N] [--network=NAME] [--seed=N]
///                               NAME: bert|resnet50|mobilenet_v2, a Table 6
///                               suite (GEMM-S ... T2D: its headline case), or
///                               gemm:MxKxN (default bert)
///       [--batch=N]             batch size (default 1)
///       [--hw=NAME]             hardware preset: xeon (default), xeon_6226r,
///                               rtx3090, gpu or test
///       [--paper]               Table 5 search options; not with --log
///       [--policy=NAME]         tune one policy instead of the comparison
///       [--log=PATH]            append records; resume when the log exists
///       [--model=PATH]          pretrained experience model (harl_harvest)
///       [--value-model=PATH]    partial-schedule value model (harl_harvest
///                               value): policies beam-prune their expansions
///                               with it and records stamp its fingerprint
///       [--beam-width=N]        tracks/population kept after value pruning
///                               (default 16; needs --value-model)
///       [--sample-clusters=N]   adaptive-sampling trial filter: measure only
///                               N cluster representatives per round (0 = off)
///       [--stop-at-ms=X]        stop at the first round boundary whose
///                               estimated latency is <= X ms (for
///                               trials-to-target comparisons)
///       [--verify-resume]       re-simulate a sample of replayed trials and
///                               fail (exit 4) if the log diverges from the
///                               current simulator instead of silently forking
///       [--async-callbacks]     run callbacks (logger, refresher) on an
///                               AsyncCallbackBus dispatcher thread instead of
///                               the tuning thread; output stays bit-identical
///       [--refresh-period=N]    in-run experience refresh: fold finished
///                               rounds into an ExperienceStore and refit +
///                               republish the model every N rounds
///       [--refresh-out=PATH]    refreshed-model publish target (default:
///                               <log>.model.json, else refresh.model.json)
///       [--stop-after-rounds=N] simulate a crash: _Exit(3) after N rounds
///       [--inject-faults=SPEC]  deterministic measurement faults; SPEC is
///                               `none` or comma-separated terms
///                               transient=P|timeout=P|garbage=P|crash=N,
///                               optionally `:SEED` (e.g.
///                               --inject-faults=transient=0.1,crash=120:77).
///                               crash=N _Exit(3)s when trial N is assigned;
///                               drop the crash= term to resume, exactly like
///                               --stop-after-rounds
///       [--dump-rounds=PATH]    bit-exact round log (hexfloat) for diffing
///       [--loop-nest]           print each task's best schedule as a loop
///                               nest (HARL's, in the comparison)
///       [--help]                print this usage and exit
///
/// Crash-resume walkthrough (the CI determinism gate):
///   ./build/tune_network --policy=HARL --log=run.jsonl --stop-after-rounds=6
///   ./build/tune_network --policy=HARL --log=run.jsonl   # resumes, finishes
/// The resumed round log is byte-identical to an uninterrupted run's.
/// The same walkthrough holds under --inject-faults with the same SPEC:SEED:
/// failures land on the same trials, so the faulty resume is bit-identical
/// too (the chaos gate in CI proves both).

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/harl.hpp"
#include "sched/loop_nest.hpp"
#include "util/parse.hpp"

namespace {

using namespace harl;

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: tune_network [trials]\n"
      "  [--trials=N] [--network=NAME] [--seed=N]\n"
      "                          NAME: bert|resnet50|mobilenet_v2, a Table 6\n"
      "                          suite (GEMM-S..T2D) or gemm:MxKxN\n"
      "  [--batch=N]             batch size (default 1)\n"
      "  [--hw=NAME]             xeon (default), xeon_6226r, rtx3090, gpu, test\n"
      "  [--paper]               Table 5 search options; not with --log\n"
      "  [--policy=NAME]         tune one registered policy (durable mode)\n"
      "  [--log=PATH]            append records; resume when the log exists\n"
      "  [--model=PATH]          pretrained experience model (harl_harvest)\n"
      "  [--value-model=PATH]    partial-schedule value model (harl_harvest value)\n"
      "  [--beam-width=N]        tracks kept after value pruning (default 16)\n"
      "  [--sample-clusters=N]   measure only N cluster representatives (0 = off)\n"
      "  [--stop-at-ms=X]        stop once estimated latency <= X ms\n"
      "  [--verify-resume]       re-simulate replayed trials; exit 4 on drift\n"
      "  [--async-callbacks]     callbacks on a dispatcher thread (bit-identical)\n"
      "  [--refresh-period=N]    refit + republish experience model every N rounds\n"
      "  [--refresh-out=PATH]    refreshed-model publish target\n"
      "  [--stop-after-rounds=N] simulate a crash: _Exit(3) after N rounds\n"
      "  [--inject-faults=SPEC]  deterministic faults: none or\n"
      "                          transient=P,timeout=P,garbage=P,crash=N[:SEED]\n"
      "  [--dump-rounds=PATH]    bit-exact round log (hexfloat) for diffing\n"
      "  [--loop-nest]           print each task's best schedule as a loop nest\n"
      "  [--help]                print this usage and exit\n");
}

/// Matches "--name=value" and returns the value part.
bool flag_value(const char* arg, const char* name, const char** value) {
  std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

/// Parses a trial count (--trials= or the positional [trials]): a positive
/// integer filling all of `p`.  Prints the error and returns false otherwise.
bool parse_trials(const char* p, std::int64_t* trials) {
  const char* end = parse_positive(p, trials);
  if (end != nullptr && *end == '\0') return true;
  std::fprintf(stderr, "bad trial count %s: want a positive integer\n", p);
  return false;
}

/// --network=: a builtin network, a Table 6 suite (its headline case as a
/// one-subgraph network) or "gemm:MxKxN".  Suite and GEMM networks are named
/// "<name>_b<batch>" like the builtins, so a record log's network name pins
/// the batch.  Throws std::invalid_argument for anything else.
Network parse_network(const std::string& name, std::int64_t batch) {
  const std::vector<std::string>& suites = table6_suite_names();
  Network net;
  net.name = name + "_b" + std::to_string(batch);
  if (std::find(suites.begin(), suites.end(), name) != suites.end()) {
    net.subgraphs.push_back(std::move(table6_suite(name, batch)[0].graph));
    return net;
  }
  if (name.rfind("gemm:", 0) != 0) return make_network(name, batch);
  std::int64_t dims[3] = {0, 0, 0};
  const char* p = name.c_str() + 5;
  for (int i = 0; i < 3; ++i) {
    p = parse_positive(p, &dims[i]);
    if (p == nullptr || *p != (i < 2 ? 'x' : '\0') || dims[i] > kMaxGemmDim) {
      throw std::invalid_argument("bad network \"" + name +
                                  "\": want gemm:MxKxN with M, K, N in [1, " +
                                  std::to_string(kMaxGemmDim) + "]");
    }
    ++p;
  }
  net.subgraphs.push_back(make_gemm(dims[0], dims[1], dims[2], batch));
  return net;
}

void print_loop_nests(const TuningSession& session) {
  const TaskScheduler& sched = session.scheduler();
  for (int i = 0; i < sched.num_tasks(); ++i) {
    const TaskState& t = sched.task(i);
    if (!t.has_best()) continue;
    std::printf("\n%s", render_loop_nest(t.best_schedule(),
                                         session.hardware().unroll_depths)
                            .c_str());
  }
}

/// Simulated crash for the resume gate: exit without unwinding as soon as N
/// rounds completed.  Registered after the RecordLogger, so the final
/// round's records are already flushed when this fires.
struct CrashAfterRounds : TuningCallback {
  explicit CrashAfterRounds(int rounds) : remaining(rounds) {}
  int remaining;
  void on_round(const TaskScheduler&, const RoundEvent&) override {
    if (--remaining <= 0) std::_Exit(3);
  }
};

/// Early-stop for trials-to-target comparisons (the CI value-guide gate):
/// request a stop at the first round boundary whose estimated latency
/// reaches the target.  request_stop only affects *when* the run exits — the
/// rounds that did run are a prefix of the full run, so determinism holds
/// as long as the stop lands at the round that reached the target: it is
/// registered on the session, never on the --async-callbacks bus, whose
/// dispatcher would request it some rounds late.
struct StopAtLatency : TuningCallback {
  TuningSession* session = nullptr;
  double target_ms = 0;
  void on_round(const TaskScheduler&, const RoundEvent& e) override {
    if (e.net_latency_ms <= target_ms) session->request_stop();
  }
};

void dump_round_log(const TaskScheduler& sched, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  for (const TaskScheduler::RoundLog& r : sched.round_log()) {
    // %a prints the exact bits of the latency, so diffing two dumps is a
    // bit-identity check, not an approximate one.
    std::fprintf(f, "%d %lld %a\n", r.task, static_cast<long long>(r.trials_after),
                 r.net_latency_ms);
  }
  std::fclose(f);
}

void print_task_table(const TuningSession& session, const char* title) {
  const Network& net = session.network();
  Table table(title);
  table.set_header({"subgraph", "weight", "best ms", "trials"});
  auto alloc = session.scheduler().task_allocations();
  for (int i = 0; i < session.scheduler().num_tasks(); ++i) {
    std::size_t k = static_cast<std::size_t>(i);
    table.add(net.subgraphs[k].name(), net.subgraphs[k].weight(),
              Table::fmt(session.task_best_ms(i), 4), alloc[k]);
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace harl;
  std::int64_t trials = 600;
  std::uint64_t seed = 42;
  std::string network_name = "bert";
  std::string hw_name = "xeon";
  std::int64_t batch = 1;
  bool paper = false;
  bool loop_nest = false;
  std::string policy_name;
  std::string log_path;
  std::string dump_path;
  std::string model_path;
  std::string value_model_path;
  std::string refresh_out;
  std::string fault_spec_text;
  bool verify_resume_flag = false;
  bool async_callbacks = false;
  int refresh_period = 0;
  int stop_after_rounds = 0;
  int beam_width = 16;
  int sample_clusters = 0;
  double stop_at_ms = 0;

  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (flag_value(argv[i], "--trials", &v)) {
      if (!parse_trials(v, &trials)) return 1;
    } else if (flag_value(argv[i], "--seed", &v)) {
      if (!parse_u64(v, &seed)) {
        std::fprintf(stderr, "bad --seed=%s: want an unsigned 64-bit integer\n", v);
        return 1;
      }
    } else if (flag_value(argv[i], "--network", &v)) {
      network_name = v;
    } else if (flag_value(argv[i], "--batch", &v)) {
      const char* end = parse_positive(v, &batch);
      if (end == nullptr || *end != '\0' || batch > kMaxBatch) {
        std::fprintf(stderr, "bad --batch=%s: want an integer in [1, %lld]\n", v,
                     static_cast<long long>(kMaxBatch));
        return 1;
      }
    } else if (flag_value(argv[i], "--hw", &v)) {
      hw_name = v;
    } else if (std::strcmp(argv[i], "--paper") == 0) {
      paper = true;
    } else if (std::strcmp(argv[i], "--loop-nest") == 0) {
      loop_nest = true;
    } else if (flag_value(argv[i], "--policy", &v)) {
      policy_name = v;
    } else if (flag_value(argv[i], "--log", &v)) {
      log_path = v;
    } else if (flag_value(argv[i], "--model", &v)) {
      model_path = v;
    } else if (flag_value(argv[i], "--value-model", &v)) {
      value_model_path = v;
    } else if (flag_value(argv[i], "--beam-width", &v)) {
      if (!parse_int_flag("--beam-width", v, 1, INT_MAX, &beam_width)) return 1;
    } else if (flag_value(argv[i], "--sample-clusters", &v)) {
      if (!parse_int_flag("--sample-clusters", v, 0, INT_MAX, &sample_clusters)) return 1;
    } else if (flag_value(argv[i], "--stop-at-ms", &v)) {
      if (!parse_nonnegative(v, &stop_at_ms)) {
        std::fprintf(stderr, "bad --stop-at-ms=%s: want a non-negative number\n", v);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--verify-resume") == 0) {
      verify_resume_flag = true;
    } else if (std::strcmp(argv[i], "--async-callbacks") == 0) {
      async_callbacks = true;
    } else if (flag_value(argv[i], "--refresh-period", &v)) {
      if (!parse_int_flag("--refresh-period", v, 0, INT_MAX, &refresh_period)) return 1;
    } else if (flag_value(argv[i], "--refresh-out", &v)) {
      refresh_out = v;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(stdout);
      return 0;
    } else if (flag_value(argv[i], "--dump-rounds", &v)) {
      dump_path = v;
    } else if (flag_value(argv[i], "--stop-after-rounds", &v)) {
      if (!parse_int_flag("--stop-after-rounds", v, 0, INT_MAX, &stop_after_rounds)) return 1;
    } else if (flag_value(argv[i], "--inject-faults", &v)) {
      fault_spec_text = v;
    } else if (argv[i][0] != '-') {
      if (!parse_trials(argv[i], &trials)) return 1;  // legacy positional [trials]
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      print_usage(stderr);
      return 1;
    }
  }

  FaultSpec fault_spec;
  if (!fault_spec_text.empty()) {
    std::string error;
    if (!FaultSpec::parse(fault_spec_text, &fault_spec, &error)) {
      std::fprintf(stderr, "bad --inject-faults spec \"%s\": %s\n",
                   fault_spec_text.c_str(), error.c_str());
      return 1;
    }
  }

  std::optional<HardwareConfig> hw = HardwareConfig::preset(hw_name);
  if (!hw) {
    std::fprintf(stderr, "unknown --hw=%s (%s)\n",
                 hw_name.c_str(), HardwareConfig::kPresetNames);
    return 1;
  }
  Network net;
  try {
    net = parse_network(network_name, batch);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  SearchOptions (*preset)(PolicyKind, std::uint64_t) =
      paper ? paper_options : quick_options;

  if (paper && !log_path.empty()) {
    // The search options are not part of a record's run identity: a resume
    // across presets would replay logged times onto other schedules.
    std::fprintf(stderr, "--paper cannot be combined with --log\n");
    return 1;
  }
  if (fault_spec.any() && policy_name.empty()) {
    std::fprintf(stderr, "--inject-faults requires --policy=NAME mode\n");
    return 1;
  }

  if (!policy_name.empty()) {
    // ---- single-policy mode: durable, resumable ------------------------
    if (!PolicyRegistry::instance().contains(policy_name)) {
      std::fprintf(stderr, "unknown policy \"%s\"; registered policies:\n",
                   policy_name.c_str());
      for (const std::string& n : PolicyRegistry::instance().names()) {
        std::fprintf(stderr, "  %s\n", n.c_str());
      }
      return 1;
    }
    SearchOptions opts = preset(PolicyKind::kHarl, seed);
    opts.policy_name = policy_name;
    opts.experience_model = model_path;
    if (!value_model_path.empty() || sample_clusters > 0) {
      opts.value_guide.enabled = true;
      opts.value_guide.model_path = value_model_path;
      opts.value_guide.beam_width = beam_width;
      opts.value_guide.sample_clusters = sample_clusters;
    }

    std::unique_ptr<ExperienceRefresher> refresher;
    if (refresh_period > 0) {
      RefreshOptions ropts;
      ropts.period_rounds = refresh_period;
      ropts.publish_path = !refresh_out.empty() ? refresh_out
                           : !log_path.empty() ? log_path + ".model.json"
                                               : "refresh.model.json";
      refresher = std::make_unique<ExperienceRefresher>(*hw, ropts);
      if (!model_path.empty()) {
        // Load once, share between the session (its fixed prior) and the
        // refresher (the base the refreshed model continues from).  Same
        // validation as the experience_model path: a wrong feature width
        // would index past the end of every extracted row.
        auto base = std::make_shared<Gbdt>();
        std::string error;
        if (!load_gbdt(model_path, base.get(), &error)) {
          std::fprintf(stderr, "cannot load --model %s: %s\n",
                       model_path.c_str(), error.c_str());
          return 1;
        }
        if (base->num_features() != FeatureExtractor::kNumFeatures) {
          std::fprintf(stderr,
                       "--model %s has %d features (extractor has %d); "
                       "ignored, starting cold\n",
                       model_path.c_str(), base->num_features(),
                       FeatureExtractor::kNumFeatures);
        } else {
          opts.experience_model.clear();
          opts.cost_model.pretrained = base;
          refresher->set_base_model(std::move(base));
        }
      }
    }

    TuningSession session(net, *hw, opts);
    // The injector is installed only when the spec injects something, so a
    // `--inject-faults=none:SEED` invocation runs the exact fault-free code
    // path and its outputs stay byte-identical to a run without the flag.
    std::unique_ptr<FaultInjector> injector;
    if (fault_spec.any()) {
      injector = std::make_unique<FaultInjector>(fault_spec);
      session.measurer().set_fault_injector(injector.get());
      if (fault_spec.crash_at_trial >= 0) {
        // Hard crash, no unwinding: the log keeps only fully committed
        // rounds, and the next invocation (same spec minus crash=) resumes.
        session.measurer().set_crash_hook([](std::int64_t) { std::_Exit(3); });
      }
    }
    RecordLogger logger;
    CrashAfterRounds crasher(stop_after_rounds);
    StopAtLatency stopper;
    // --async-callbacks: every observer below runs on this bus's dispatcher
    // thread.  Declared after the session and the consumers, so it is
    // destroyed (and drained) before any of them.
    std::unique_ptr<AsyncCallbackBus> bus;
    if (async_callbacks) {
      bus = std::make_unique<AsyncCallbackBus>();
      session.add_callback(bus.get());
    }
    auto observe = [&](TuningCallback* cb) {
      if (bus != nullptr) {
        bus->add(cb);
      } else {
        session.add_callback(cb);
      }
    };
    if (!log_path.empty()) {
      // Self-heal first: a corrupt mid-file line would otherwise end the
      // replay early and fork the run.  The original is kept as evidence.
      SalvageResult sv = salvage_log(log_path);
      if (sv.salvaged) {
        std::fprintf(stderr,
                     "%s: salvaged: kept %zu lines, dropped %zu corrupt "
                     "(original preserved at %s)\n",
                     log_path.c_str(), sv.lines_kept, sv.lines_dropped,
                     sv.quarantine_path.c_str());
      } else if (!sv.error.empty()) {
        std::fprintf(stderr, "%s: salvage failed: %s\n", log_path.c_str(),
                     sv.error.c_str());
      }
      std::vector<RecordReadError> read_errors;
      std::vector<TuningRecord> records = read_records(log_path, &read_errors);
      if (verify_resume_flag) {
        VerifyResumeReport report = verify_resume(session, records);
        if (!records.empty() && report.matched == 0) {
          // A verification that matched nothing never ran; saying "ok" here
          // would bless resuming a foreign log.
          std::fprintf(stderr,
                       "verify-resume FAILED: %zu records in %s, none match "
                       "this run's identity (network/hardware/policy/seed/"
                       "experience model)\n",
                       records.size(), log_path.c_str());
          return 4;
        }
        if (!report.ok()) {
          std::fprintf(stderr,
                       "verify-resume FAILED: %zu of %zu checked trials "
                       "diverge from the current simulator\n",
                       report.mismatches.size(), report.checked);
          std::fprintf(stderr, "  %8s  %-24s  %16s  %16s\n", "trial", "task",
                       "logged ms", "recomputed ms");
          for (const VerifyResumeMismatch& m : report.mismatches) {
            if (m.error.empty()) {
              std::fprintf(stderr, "  %8lld  %-24s  %16.9g  %16.9g\n",
                           static_cast<long long>(m.trial_index),
                           m.task.c_str(), m.logged_ms, m.recomputed_ms);
            } else {
              std::fprintf(stderr, "  %8lld  %-24s  %16.9g  [%s]\n",
                           static_cast<long long>(m.trial_index),
                           m.task.c_str(), m.logged_ms, m.error.c_str());
            }
          }
          std::fprintf(stderr,
                       "the log was produced by a different simulator/hardware "
                       "model; resuming would fork the run\n");
          return 4;
        }
        std::printf("verify-resume: %zu of %zu replayable trials re-simulated, "
                    "all bit-identical\n",
                    report.checked, report.matched);
      }
      ResumeStats st = resume_session(session, records);
      if (!logger.open(log_path, /*append=*/true)) {
        std::fprintf(stderr, "cannot open log %s\n", log_path.c_str());
        return 1;
      }
      logger.set_skip(st.records_matched);
      observe(&logger);
      if (st.records_matched > 0) {
        std::printf("resuming from %s: %zu records, %lld trials to replay\n",
                    log_path.c_str(), st.records_matched,
                    static_cast<long long>(st.replay_trials));
      }
      for (const RecordReadError& e : read_errors) {
        std::fprintf(stderr, "%s:%zu: skipped: %s\n", log_path.c_str(),
                     e.line_number, e.message.c_str());
      }
    }
    if (refresher != nullptr) observe(refresher.get());
    if (stop_after_rounds > 0) observe(&crasher);
    if (stop_at_ms > 0) {
      stopper.session = &session;
      stopper.target_ms = stop_at_ms;
      session.add_callback(&stopper);
    }

    std::printf("Tuning %s with policy %s, %lld trials (seed %llu)...\n\n",
                net.name.c_str(), policy_name.c_str(),
                static_cast<long long>(trials),
                static_cast<unsigned long long>(seed));
    session.run(trials);

    print_task_table(session, "per-subgraph results");
    std::printf("\nestimated end-to-end latency: %.4f ms\n", session.latency_ms());
    std::printf("trials used: %lld (replayed from log: %lld)\n",
                static_cast<long long>(session.measurer().trials_used()),
                static_cast<long long>(session.measurer().replayed()));
    if (opts.value_guide.enabled) {
      std::int64_t credited = 0;
      for (int i = 0; i < session.scheduler().num_tasks(); ++i) {
        credited += session.scheduler().task(i).credited_candidates();
      }
      std::printf("value guide: model fingerprint %llu, candidates credited "
                  "without measurement: %lld\n",
                  static_cast<unsigned long long>(
                      session.scheduler().value_fingerprint()),
                  static_cast<long long>(credited));
    }
    const Measurer& m = session.measurer();
    if (injector != nullptr || m.failed() > 0) {
      std::printf("failed measurements: %lld (%lld retries, %lld recovered, "
                  "%zu schedules quarantined, %lld quarantine hits)\n",
                  static_cast<long long>(m.failed()),
                  static_cast<long long>(m.retries()),
                  static_cast<long long>(m.recovered()),
                  m.quarantined_schedules(),
                  static_cast<long long>(m.quarantine_hits()));
    }
    if (injector != nullptr) {
      std::printf("injected faults (%s): %llu transient, %llu timeout, "
                  "%llu garbage\n",
                  injector->spec().to_string().c_str(),
                  static_cast<unsigned long long>(injector->injected_transient()),
                  static_cast<unsigned long long>(injector->injected_timeout()),
                  static_cast<unsigned long long>(injector->injected_garbage()));
    }
    if (!log_path.empty()) {
      std::printf("record log: %s (+%zu records this run)\n", log_path.c_str(),
                  logger.written());
    }
    if (bus != nullptr) {
      std::printf("async callbacks: %llu events dispatched (%llu consumer "
                  "errors)\n",
                  static_cast<unsigned long long>(bus->delivered()),
                  static_cast<unsigned long long>(bus->consumer_errors()));
    }
    if (refresher != nullptr) {
      // Fold the tail in: the final publish covers the whole run, so the
      // next invocation (or a sibling) starts from everything measured here.
      refresher->refresh_now();
      bool published =
          refresher->refreshes() > 0 && refresher->publish_errors() == 0;
      std::printf("experience refresh: %zu refits over %zu records; "
                  "model %s (fingerprint %llu)\n",
                  refresher->refreshes(), refresher->records_folded(),
                  published ? "published" : "not published",
                  static_cast<unsigned long long>(
                      refresher->current_fingerprint()));
      if (refresher->publish_errors() > 0) {
        std::fprintf(stderr, "experience refresh: %zu publish failure(s); "
                     "the published file is missing or stale\n",
                     refresher->publish_errors());
      }
    }
    if (loop_nest) print_loop_nests(session);
    if (!dump_path.empty()) dump_round_log(session.scheduler(), dump_path.c_str());
    return 0;
  }

  // ---- comparison mode (legacy default): HARL vs Ansor on the network ----
  std::printf("Tuning %s (batch %lld) with %lld trials per scheduler...\n\n",
              net.name.c_str(), static_cast<long long>(batch),
              static_cast<long long>(trials));

  TuningSession ansor(net, *hw, preset(PolicyKind::kAnsor, seed));
  ansor.run(trials);
  TuningSession harl(net, *hw, preset(PolicyKind::kHarl, seed));
  harl.run(trials);

  Table table(net.name + " per-subgraph results");
  table.set_header({"subgraph", "weight", "HARL ms", "Ansor ms", "speedup",
                    "HARL trials"});
  auto alloc = harl.scheduler().task_allocations();
  for (int i = 0; i < harl.scheduler().num_tasks(); ++i) {
    std::size_t k = static_cast<std::size_t>(i);
    table.add(net.subgraphs[k].name(), net.subgraphs[k].weight(),
              Table::fmt(harl.task_best_ms(i), 4), Table::fmt(ansor.task_best_ms(i), 4),
              Table::fmt(ansor.task_best_ms(i) / harl.task_best_ms(i), 2) + "x",
              alloc[k]);
  }
  table.print();

  std::printf("\nestimated end-to-end latency (sum w_n * g_n):\n");
  std::printf("  HARL : %.3f ms\n", harl.latency_ms());
  std::printf("  Ansor: %.3f ms  (HARL speedup: %.2fx)\n", ansor.latency_ms(),
              ansor.latency_ms() / harl.latency_ms());

  std::printf("\n%s", render_session_report(harl).c_str());
  if (loop_nest) print_loop_nests(harl);
  if (!dump_path.empty()) dump_round_log(harl.scheduler(), dump_path.c_str());
  return 0;
}
