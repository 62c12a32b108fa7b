#include "io/resume.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "core/tuning.hpp"
#include "util/logging.hpp"

namespace harl {

ResumeStats resume_session(TuningSession& session,
                           const std::vector<TuningRecord>& records) {
  ResumeStats stats;
  stats.records_loaded = records.size();

  const TaskScheduler& sched = session.scheduler();
  const std::string net = sched.network().name;
  const std::string policy = sched.options().policy_name;
  const std::uint64_t seed = sched.options().seed;
  const std::uint64_t hw_fp = sched.hardware().fingerprint();
  const std::uint64_t exp_fp = sched.experience_fingerprint();
  const std::uint64_t vm_fp = sched.value_fingerprint();

  std::vector<double> replay;
  for (const TuningRecord& r : records) {
    // The experience and value-model fingerprints are part of the identity:
    // a pretrained prior (or a value-guided beam) changes which schedules
    // the search proposes, so a cold log replayed into a warm/guided session
    // (or vice versa, or across different models) would attach logged times
    // to the wrong schedules.
    if (r.network != net || r.hardware_fp != hw_fp || r.policy != policy ||
        r.seed != seed || r.experience_fp != exp_fp || r.value_fp != vm_fp) {
      ++stats.records_skipped;
      continue;
    }
    ++stats.records_matched;
    // Cache hits carry no simulator invocation of their own; the resumed run
    // re-derives them from the re-populated measure cache.  Failed records
    // carry no usable time either: the resumed run re-executes their trials
    // against the (same-seeded) fault injector and fails identically, which
    // is what keeps a faulty crash-resume bit-identical.
    if (r.cached || r.trial_index < 0 || !r.fail.empty()) continue;
    std::size_t idx = static_cast<std::size_t>(r.trial_index);
    if (replay.size() <= idx) {
      replay.resize(idx + 1, std::numeric_limits<double>::quiet_NaN());
    }
    if (std::isnan(replay[idx])) ++stats.replay_trials;
    replay[idx] = r.time_ms;
  }
  if (!replay.empty()) {
    session.measurer().preload_replay(std::move(replay));
  }
  return stats;
}

ResumeStats resume_session(TuningSession& session, const std::string& log_path) {
  std::vector<RecordReadError> errors;
  std::vector<TuningRecord> records = read_records(log_path, &errors);
  ResumeStats stats = resume_session(session, records);
  stats.lines_skipped = errors.size();
  stats.errors = std::move(errors);
  return stats;
}

VerifyResumeReport verify_resume(const TuningSession& session,
                                 const std::vector<TuningRecord>& records,
                                 std::size_t max_checks) {
  VerifyResumeReport report;
  const TaskScheduler& sched = session.scheduler();
  const std::string net = sched.network().name;
  const std::string policy = sched.options().policy_name;
  const std::uint64_t seed = sched.options().seed;
  const std::uint64_t hw_fp = sched.hardware().fingerprint();
  const std::uint64_t exp_fp = sched.experience_fingerprint();
  const std::uint64_t vm_fp = sched.value_fingerprint();
  const int num_unroll = sched.hardware().num_unroll_options();

  // `matched` counts every record of this run's identity; `eligible` is the
  // checkable subset — real simulator measurements only, since a
  // cache-replayed record carries the time of an *earlier* trial's noise
  // draw and recomputing it at its snapshot index would flag a false
  // divergence.
  std::vector<const TuningRecord*> eligible;
  for (const TuningRecord& r : records) {
    if (r.network != net || r.hardware_fp != hw_fp || r.policy != policy ||
        r.seed != seed || r.experience_fp != exp_fp || r.value_fp != vm_fp) {
      continue;
    }
    ++report.matched;
    if (r.cached || r.trial_index < 0 || !r.fail.empty()) continue;
    eligible.push_back(&r);
  }
  if (eligible.empty() || max_checks == 0) return report;

  // Deterministic sample: every stride-th record, spread over the whole log
  // so early and late rounds are both covered.
  std::size_t stride = (eligible.size() + max_checks - 1) / max_checks;
  for (std::size_t i = 0; i < eligible.size(); i += stride) {
    const TuningRecord& r = *eligible[i];
    ++report.checked;

    int task_index = -1;
    for (int t = 0; t < sched.num_tasks(); ++t) {
      if (sched.task(t).graph().name() == r.task) {
        task_index = t;
        break;
      }
    }
    std::string error;
    Schedule s;
    if (task_index < 0) {
      error = "no task named \"" + r.task + "\" in this session";
    } else {
      s = schedule_from_record(r, sched.task(task_index).sketches(), num_unroll,
                               &error);
    }
    if (s.sketch == nullptr) {
      report.mismatches.push_back(
          {r.trial_index, r.task, r.time_ms,
           std::numeric_limits<double>::quiet_NaN(), std::move(error)});
      continue;
    }
    double recomputed = session.measurer().remeasure(s, r.trial_index);
    if (recomputed != r.time_ms) {
      report.mismatches.push_back(
          {r.trial_index, r.task, r.time_ms, recomputed, ""});
    }
  }
  return report;
}

}  // namespace harl
