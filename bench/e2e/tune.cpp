/// Tune workloads of bench_e2e.  Each run tunes a fixed number of sessions
/// (seeds derived from --seed) with a RecordLogger attached, and checks every
/// session's accounting, latency and resume log.
///
/// A traced run tunes each session twice with the same seed: once through
/// `TuningSession::run` (the timed user path) and once through a bench loop
/// over `TaskScheduler::run_round` that mirrors `run()`, with the policy
/// wrapped by `TimedPolicy` (registered in `PolicyRegistry`) and the logger
/// wrapped by `TimedLogger`.  Both passes must produce bit-identical round
/// logs.  The simulator, cost-model refit, predict and feature layers are
/// then timed by replaying the captured inputs after the loop, so replays
/// never inflate the traced wall.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/presets.hpp"
#include "core/tuning.hpp"
#include "cost/cost_model.hpp"
#include "features/feature_extractor.hpp"
#include "io/record_io.hpp"
#include "io/record_logger.hpp"
#include "io/resume.hpp"
#include "search/policy_registry.hpp"
#include "util/thread_pool.hpp"
#include "workloads/networks.hpp"

#include "e2e.hpp"

namespace e2e {
namespace {

using harl::MeasuredRecord;
using harl::Schedule;

struct TuneSpec {
  const char* workload;
  const char* network;
  harl::PolicyKind policy;
  const char* task_select;  ///< "" = the policy's default rule
  std::int64_t budget;      ///< trials per session
  std::int64_t smoke_budget;
  double nominal_session_s;  ///< sizes the session count to --seconds
};

// The Ansor workload selects tasks round-robin, not by Ansor's default
// greedy-gradient rule.  Greedy puts most of a session's trials on a few
// tasks, and which tasks depends on the seed: over 16 seeds a 3000-trial
// greedy session took 2.8-25 s and ended at 6.2-34 ms, too wide for a run of
// fixed length and for the quality bound.
constexpr TuneSpec kSpecs[] = {
    {"tune-bert-harl", "bert", harl::PolicyKind::kHarl, "", 1200, 120, 6.5},
    {"tune-resnet50-ansor-rr", "resnet50", harl::PolicyKind::kAnsor, "round-robin", 1000, 480, 0.5},
};

// ------------------------------------------------------------ traced capture

/// What the traced loop, the wrapped policy and the wrapped logger record
/// for one scheduler round.
struct RoundCapture {
  int task = -1;
  Clock::time_point start, end;                // TaskScheduler::run_round
  Clock::time_point policy_start, policy_end;  // SearchPolicy::tune_round
  Clock::time_point log_start, log_end;        // RecordLogger::on_records
  std::vector<Schedule> simulated;             // reached the simulator
  std::int64_t cache_hits = 0;                 // replayed from the measure cache
  std::vector<Schedule> committed;             // fed to the task's cost model
  std::vector<double> committed_ms;
};

/// The capture of the traced pass in flight; its last entry is the round in
/// flight.  TimedPolicy and TimedLogger only run inside that pass, on the
/// loop's thread (callbacks are synchronous).
std::vector<RoundCapture>* g_capture = nullptr;

/// Delegates to the registered policy and times `tune_round`.
class TimedPolicy final : public harl::SearchPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<harl::SearchPolicy> inner) : inner_(std::move(inner)) {}
  const char* name() const override { return inner_->name(); }

  std::vector<MeasuredRecord> tune_round(harl::Measurer& measurer, int num_measures) override {
    RoundCapture& rc = g_capture->back();
    rc.policy_start = Clock::now();
    std::vector<MeasuredRecord> records = inner_->tune_round(measurer, num_measures);
    rc.policy_end = Clock::now();
    for (const MeasuredRecord& r : records) {
      if (r.cached) ++rc.cache_hits;
      if (!r.cached && r.status != harl::MeasureStatus::kQuarantined) rc.simulated.push_back(r.sched);
      if (!r.failed()) {
        rc.committed.push_back(r.sched);
        rc.committed_ms.push_back(r.time_ms);
      }
    }
    return records;
  }

 private:
  std::unique_ptr<harl::SearchPolicy> inner_;
};

std::string timed_policy_name(harl::PolicyKind kind) {
  return std::string("e2e-timed-") + harl::policy_kind_name(kind);
}

void register_timed_policy(harl::PolicyKind kind) {
  const std::string inner = harl::policy_kind_name(kind);
  harl::PolicyRegistry::instance().register_policy(
      timed_policy_name(kind), [inner](harl::TaskState* task, const harl::SearchOptions& opts) {
        std::unique_ptr<harl::SearchPolicy> p =
            harl::PolicyRegistry::instance().create(inner, task, opts);
        if (p == nullptr) throw std::runtime_error("policy " + inner + " is not registered");
        return std::make_unique<TimedPolicy>(std::move(p));
      });
}

/// Forwards record batches to a RecordLogger (the only event it handles)
/// and times each write.
class TimedLogger final : public harl::TuningCallback {
 public:
  explicit TimedLogger(harl::RecordLogger* inner) : inner_(inner) {}
  void on_records(const harl::TaskScheduler& scheduler, int task,
                  const std::vector<MeasuredRecord>& records) override {
    RoundCapture& rc = g_capture->back();
    rc.log_start = Clock::now();
    inner_->on_records(scheduler, task, records);
    rc.log_end = Clock::now();
  }

 private:
  harl::RecordLogger* inner_;
};

// --------------------------------------------------------------- sessions

harl::SearchOptions session_options(const TuneSpec& spec, std::uint64_t seed,
                                    harl::ThreadPool& pool, bool timed) {
  harl::SearchOptions o = harl::quick_options(spec.policy, seed);
  o.pool = &pool;
  o.task_select_name = spec.task_select;
  if (timed) o.policy_name = timed_policy_name(spec.policy);
  return o;
}

std::vector<std::string> round_log_lines(const harl::TaskScheduler& sched) {
  std::vector<std::string> out;
  char buf[96];
  for (const auto& r : sched.round_log()) {
    std::snprintf(buf, sizeof(buf), "%d %lld %a", r.task, static_cast<long long>(r.trials_after),
                  r.net_latency_ms);
    out.push_back(buf);
  }
  return out;
}

long long file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<long long>(st.st_size) : -1;
}

struct Pass {
  double wall_s = 0;
  std::int64_t trials = 0;
  double latency_ms = 0;
  std::vector<std::string> round_log;
};

/// Accounting checks shared by both passes.
void check_session(const harl::TuningSession& s, std::int64_t budget, const std::string& what,
                   Report& report) {
  const std::int64_t used = s.measurer().trials_used();
  std::int64_t allocated = 0;
  for (std::int64_t a : s.scheduler().task_allocations()) allocated += a;
  // A round may overshoot the budget when duplicates or cache hits leave it
  // short of measures_per_round trials, so the budget is met, not hit.
  report.check(used >= budget && used < budget + s.scheduler().options().measures_per_round,
               what + ": trials_used " + std::to_string(used) + " vs budget " +
                   std::to_string(budget));
  report.check(allocated == used, what + ": sum(task_allocations) " + std::to_string(allocated) +
                                      " != trials_used " + std::to_string(used));
  report.check(std::isfinite(s.latency_ms()) && s.latency_ms() > 0,
               what + ": latency is not finite");
}

Pass run_untraced(const TuneSpec& spec, const harl::SearchOptions& opts, std::int64_t budget,
                  const std::string& log_path, Report& report) {
  harl::TuningSession s(harl::make_network(spec.network, 1), harl::HardwareConfig::xeon_6226r(),
                        opts);
  harl::RecordLogger logger;
  if (!logger.open(log_path, /*append=*/false)) throw std::runtime_error("cannot open " + log_path);
  s.add_callback(&logger);
  const Clock::time_point t0 = Clock::now();
  s.run(budget);
  const Clock::time_point t1 = Clock::now();
  logger.close();

  const std::string what = std::string(spec.workload) + " seed " + std::to_string(opts.seed);
  report.check(s.scheduler().last_run_exit() == harl::TaskScheduler::RunExit::kBudget,
               what + ": run ended before its budget");
  check_session(s, budget, what, report);

  // The log must replay: a fresh session re-simulates a sample of the logged
  // trials and every one must match bit for bit.
  harl::TuningSession fresh(harl::make_network(spec.network, 1),
                            harl::HardwareConfig::xeon_6226r(), opts);
  harl::VerifyResumeReport v = harl::verify_resume(fresh, harl::read_records(log_path));
  report.check(v.ok() && v.checked > 0,
               what + ": verify_resume checked " + std::to_string(v.checked) + " records, " +
                   std::to_string(v.mismatches.size()) + " mismatches");

  Pass p;
  p.wall_s = std::chrono::duration<double>(t1 - t0).count();
  p.trials = s.measurer().trials_used();
  p.latency_ms = s.latency_ms();
  p.round_log = round_log_lines(s.scheduler());
  report.attempted += p.trials;
  report.failed += s.measurer().failed();
  return p;
}

/// Per-layer sums of a traced run, accumulated over its sessions.
struct LayerSums {
  double loop_wall_ms = 0, untraced_wall_ms = 0;
  double round_ms = 0, policy_ms = 0, log_ms = 0;
  double measure_ms = 0, update_ms = 0;
  double predict_us = 0, extract_us = 0;
  std::int64_t predict_rows = 0, extract_rows = 0;
  std::int64_t trials = 0, cache_hits = 0, failed = 0;
  std::int64_t samples = 0, trees = 0;
  long long log_bytes = 0;
  std::vector<double> rounds_ms;
};

void run_traced(const TuneSpec& spec, const harl::SearchOptions& opts, std::int64_t budget,
                const std::string& log_path, const Pass& untraced, harl::ThreadPool& pool,
                Report& report, Tracer& tracer, LayerSums& sums) {
  const std::string what = std::string(spec.workload) + " seed " + std::to_string(opts.seed);
  std::vector<RoundCapture> rounds;
  harl::TuningSession s(harl::make_network(spec.network, 1), harl::HardwareConfig::xeon_6226r(),
                        opts);
  harl::RecordLogger logger;
  if (!logger.open(log_path, /*append=*/false)) throw std::runtime_error("cannot open " + log_path);
  TimedLogger timed_logger(&logger);
  s.add_callback(&timed_logger);
  harl::TaskScheduler& sched = s.scheduler();
  harl::Measurer& measurer = s.measurer();

  // Mirror of TaskScheduler::run(): same budget test and saturation guard.
  g_capture = &rounds;
  const std::int64_t start = measurer.trials_used();
  const int max_stalled = 2 * sched.num_tasks() + 8;
  int stalled = 0;
  const Clock::time_point t0 = Clock::now();
  while (measurer.trials_used() - start < budget) {
    rounds.emplace_back();
    rounds.back().start = Clock::now();
    harl::TaskScheduler::RoundResult r = sched.run_round(measurer);
    rounds.back().end = Clock::now();
    rounds.back().task = r.task;
    if (r.trials_consumed != 0) {
      stalled = 0;
    } else if (++stalled >= max_stalled) {
      break;
    }
  }
  for (int n = 0; n < sched.num_tasks(); ++n) sched.callbacks().emit_task_complete(sched, n);
  sched.flush_callbacks();
  const Clock::time_point t1 = Clock::now();
  g_capture = nullptr;
  logger.close();

  check_session(s, budget, what + " (traced)", report);
  report.check(round_log_lines(sched) == untraced.round_log,
               what + ": traced round log differs from the untraced one");

  const std::int64_t session = tracer.add("tune.session", 0, t0, t1);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundCapture& rc = rounds[i];
    const auto idx = static_cast<std::int64_t>(i);
    const std::int64_t round =
        tracer.add("search.round", session, rc.start, rc.end, Tracer::Key::kRound, idx);
    tracer.add("search.policy", round, rc.policy_start, rc.policy_end, Tracer::Key::kRound, idx);
    tracer.add("io.log", round, rc.log_start, rc.log_end, Tracer::Key::kRound, idx);
    sums.rounds_ms.push_back(ms_between(rc.start, rc.end));
    sums.round_ms += ms_between(rc.start, rc.end);
    sums.policy_ms += ms_between(rc.policy_start, rc.policy_end);
    sums.log_ms += ms_between(rc.log_start, rc.log_end);
    sums.cache_hits += rc.cache_hits;
  }
  sums.loop_wall_ms += ms_between(t0, t1);
  sums.untraced_wall_ms += untraced.wall_s * 1000.0;
  sums.trials += measurer.trials_used();
  sums.failed += measurer.failed();
  sums.log_bytes += file_bytes(log_path);

  // ---- replays, on the inputs captured above ------------------------------
  // hwsim: every round's simulated schedules through a fresh measurer on the
  // same pool, cache off so each one simulates.
  harl::Measurer replay(&s.simulator(), opts.seed);
  replay.set_pool(&pool);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    if (rounds[i].simulated.empty()) continue;
    const Clock::time_point a = Clock::now();
    replay.measure_batch_results(rounds[i].simulated);
    const Clock::time_point b = Clock::now();
    tracer.add("hwsim.measure", session, a, b, Tracer::Key::kRound, static_cast<std::int64_t>(i), true);
    sums.measure_ms += ms_between(a, b);
  }
  report.check(replay.trials_used() == measurer.trials_used(),
               what + ": simulator replay ran " + std::to_string(replay.trials_used()) +
                   " trials, the session " + std::to_string(measurer.trials_used()));

  // cost: per task, the same update sequence on a shadow model with the
  // task's config; it must end bit-identical to the live model.
  std::vector<std::unique_ptr<harl::XgbCostModel>> shadows;
  std::vector<std::vector<Schedule>> task_scheds(static_cast<std::size_t>(sched.num_tasks()));
  for (int t = 0; t < sched.num_tasks(); ++t) {
    shadows.push_back(std::make_unique<harl::XgbCostModel>(
        &s.hardware(), sched.task(t).cost_model().config()));
    shadows.back()->set_pool(&pool);
  }
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundCapture& rc = rounds[i];
    if (rc.committed.empty()) continue;
    const auto t = static_cast<std::size_t>(rc.task);
    const Clock::time_point a = Clock::now();
    shadows[t]->update(rc.committed, rc.committed_ms);
    const Clock::time_point b = Clock::now();
    tracer.add("cost.update", session, a, b, Tracer::Key::kRound, static_cast<std::int64_t>(i), true);
    sums.update_ms += ms_between(a, b);
    task_scheds[t].insert(task_scheds[t].end(), rc.committed.begin(), rc.committed.end());
  }
  std::vector<Schedule> all;
  for (int t = 0; t < sched.num_tasks(); ++t) {
    const auto ti = static_cast<std::size_t>(t);
    const harl::XgbCostModel& live = sched.task(t).cost_model();
    report.check(shadows[ti]->num_samples() == live.num_samples() &&
                     shadows[ti]->num_trees() == live.num_trees(),
                 what + ": cost-model replay diverged on task " + std::to_string(t));
    sums.samples += static_cast<std::int64_t>(live.num_samples());
    sums.trees += live.num_trees();
    if (task_scheds[ti].empty()) continue;
    const Clock::time_point a = Clock::now();
    std::vector<double> predicted = shadows[ti]->predict_batch(task_scheds[ti]);
    const Clock::time_point b = Clock::now();
    tracer.add("cost.predict", session, a, b, Tracer::Key::kNone, -1, true);
    sums.predict_us += us_between(a, b);
    sums.predict_rows += static_cast<std::int64_t>(task_scheds[ti].size());
    report.check(predicted == live.predict_batch(task_scheds[ti]),
                 what + ": shadow cost model predicts differently on task " + std::to_string(t));
    all.insert(all.end(), task_scheds[ti].begin(), task_scheds[ti].end());
  }

  // features: one flat matrix over every committed schedule.
  harl::FeatureExtractor fx(&s.hardware());
  std::vector<double> matrix(all.size() * harl::FeatureExtractor::kNumFeatures);
  const Clock::time_point a = Clock::now();
  fx.extract_matrix_into(all, matrix.data(), &pool);
  const Clock::time_point b = Clock::now();
  tracer.add("features.extract", session, a, b, Tracer::Key::kNone, -1, true);
  sums.extract_us += us_between(a, b);
  sums.extract_rows += static_cast<std::int64_t>(all.size());
}

}  // namespace

void run_tune_workload(const Args& args, harl::ThreadPool& pool, Report& report, Tracer* tracer) {
  const TuneSpec* spec = nullptr;
  for (const TuneSpec& s : kSpecs) {
    if (args.workload == s.workload) spec = &s;
  }
  if (spec == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  const std::int64_t budget = args.smoke ? spec->smoke_budget : spec->budget;
  const int sessions =
      args.smoke ? 1 : std::max(1, static_cast<int>(std::lround(args.seconds / spec->nominal_session_s)));
  if (tracer != nullptr) register_timed_policy(spec->policy);

  // Set-up: build the network, the session (sketches, policies, cost
  // models) and the record log, as every session does.  One takes tens of
  // microseconds, so batches of 25 run before every session and after the
  // last, spreading the samples over the run like the measured work.
  std::vector<double> setup_s;
  auto measure_setup = [&] {
    for (int i = 0; i < 25; ++i) {
      const Clock::time_point a = Clock::now();
      harl::TuningSession s(harl::make_network(spec->network, 1),
                            harl::HardwareConfig::xeon_6226r(),
                            session_options(*spec, args.seed, pool, false));
      harl::RecordLogger logger;
      logger.open(args.workdir + "/setup.jsonl", /*append=*/false);
      setup_s.push_back(std::chrono::duration<double>(Clock::now() - a).count());
    }
  };

  // The host's speed dips for moments; the median session's rate is steadier
  // than the total.  Session seeds are mixed (derive_seed), so the sessions
  // of one run are independent samples of the search.
  std::vector<double> trials_per_s;
  double log_latency = 0;
  LayerSums sums;
  for (int k = 0; k < sessions; ++k) {
    measure_setup();
    const std::uint64_t seed = derive_seed(args.seed, static_cast<std::uint64_t>(k));
    const std::string log = args.workdir + "/session" + std::to_string(k) + ".jsonl";
    Pass p = run_untraced(*spec, session_options(*spec, seed, pool, false), budget, log, report);
    trials_per_s.push_back(static_cast<double>(p.trials) / p.wall_s);
    log_latency += std::log(p.latency_ms);
    if (tracer != nullptr) {
      run_traced(*spec, session_options(*spec, seed, pool, true), budget,
                 args.workdir + "/traced" + std::to_string(k) + ".jsonl", p, pool, report, *tracer,
                 sums);
    }
  }
  measure_setup();

  report.set("setup_s", median(setup_s), "s");
  report.set("tune.trials_per_s", median(trials_per_s), "1/s");
  report.set("tune.final_latency_ms", std::exp(log_latency / sessions), "ms");
  report.set("tune.sessions", sessions, "count");
  if (tracer == nullptr) return;

  const double sched_self = sums.round_ms - sums.policy_ms - sums.log_ms;
  const double policy_self = sums.policy_ms - sums.measure_ms - sums.update_ms;
  report.set("search.round_ms.p50", median(sums.rounds_ms), "ms");
  report.set("search.round_ms.p99", percentile(sums.rounds_ms, 0.99), "ms");
  report.set("search.rounds", static_cast<double>(sums.rounds_ms.size()), "count");
  report.set("search.policy_ms", sums.policy_ms, "ms");
  report.set("search.policy_self_ms", policy_self, "ms");
  report.set("search.scheduler_self_ms", sched_self, "ms");
  report.set("hwsim.measure_ms", sums.measure_ms, "ms");
  report.set("hwsim.trials", static_cast<double>(sums.trials), "count");
  report.set("hwsim.cache_hit_ratio",
             static_cast<double>(sums.cache_hits) / static_cast<double>(sums.trials + sums.cache_hits),
             "ratio");
  report.set("hwsim.failed", static_cast<double>(sums.failed), "count");
  report.set("cost.update_ms", sums.update_ms, "ms");
  report.set("cost.predict_us_per_row", sums.predict_us / static_cast<double>(sums.predict_rows), "us");
  report.set("cost.samples", static_cast<double>(sums.samples), "count");
  report.set("cost.trees", static_cast<double>(sums.trees), "count");
  report.set("features.extract_us_per_row", sums.extract_us / static_cast<double>(sums.extract_rows),
             "us");
  report.set("io.log_ms", sums.log_ms, "ms");
  report.set("io.log_bytes", static_cast<double>(sums.log_bytes), "bytes");
  report.set("trace.overhead_ratio", sums.loop_wall_ms / sums.untraced_wall_ms, "ratio");

  // The layer split must account for the traced loop's wall time.  Its sum
  // is the scheduler rounds' time by construction, so this tests that the
  // rounds cover the loop; the replayed simulator and refit times must also
  // fit inside the policy spans they are subtracted from.
  const double accounted = policy_self + sums.measure_ms + sums.update_ms + sched_self + sums.log_ms;
  report.check(std::fabs(accounted - sums.loop_wall_ms) <= 0.05 * sums.loop_wall_ms,
               "layer split " + std::to_string(accounted) + " ms vs traced loop wall " +
                   std::to_string(sums.loop_wall_ms) + " ms");
  report.check(policy_self >= 0, "replayed hwsim.measure_ms + cost.update_ms (" +
                                     std::to_string(sums.measure_ms + sums.update_ms) +
                                     ") exceed search.policy_ms (" +
                                     std::to_string(sums.policy_ms) + ")");
}

}  // namespace e2e
