#pragma once

/// \file resume.hpp
/// Checkpoint-resume by deterministic re-execution with measurement replay,
/// and `verify_resume` drift detection.  Invariant: records replay only into
/// a session whose full run identity (network, hw, policy, seed, xm)
/// matches; resumed runs are bit-identical to uninterrupted ones.
/// Collaborators: Measurer, TaskScheduler.  Cross-run transfer (seeding a
/// fresh session with logged bests) is exp/transfer.hpp.

#include <string>
#include <vector>

#include "io/record.hpp"
#include "io/record_io.hpp"

namespace harl {

class TuningSession;
class TaskScheduler;

/// Outcome of loading a record log into a session.
struct ResumeStats {
  std::size_t records_loaded = 0;   ///< well-formed records in the log
  std::size_t records_matched = 0;  ///< records belonging to this run identity
  std::size_t records_skipped = 0;  ///< other-run records ignored
  std::size_t lines_skipped = 0;    ///< malformed / incompatible lines
  std::int64_t replay_trials = 0;   ///< simulator trials the resume avoids
  std::vector<RecordReadError> errors;
};

/// Checkpoint-resume: prime `session` with a record log written by an
/// earlier, interrupted run of the *same* configuration.
///
/// Records are matched against the session's run identity — network name,
/// hardware fingerprint, resolved policy name, and seed — and their measured
/// times are preloaded into the measurer's replay table by trial index.
/// Because a run is a pure function of its seed, the next `run()` re-executes
/// the logged prefix decision-for-decision — rebuilding each task's best
/// pool, curve, measured-fingerprint set, and cost model from the replayed
/// rows — without invoking the simulator for any logged trial, then continues
/// live exactly where the interrupted run stopped.  The resumed `round_log()`
/// and final best schedules are bit-identical to an uninterrupted run.
///
/// Works from any prefix of a log, including one whose final line was torn
/// by a crash (the missing trials are simply re-simulated, deterministically
/// reproducing the lost measurements).
///
/// Call before the first `run()` of a fresh session.  A log that contains no
/// matching records leaves the session untouched (stats show the mismatch).
ResumeStats resume_session(TuningSession& session, const std::string& log_path);

/// As above, from already-parsed records (no I/O).
ResumeStats resume_session(TuningSession& session,
                           const std::vector<TuningRecord>& records);

/// One divergence found by `verify_resume`: the logged time of a replayed
/// trial no longer matches what the simulator produces for the same
/// schedule and trial index (e.g. the simulator or hardware model changed
/// since the log was written).
struct VerifyResumeMismatch {
  std::int64_t trial_index = -1;
  std::string task;
  double logged_ms = 0;
  double recomputed_ms = 0;    ///< NaN when the schedule failed to rebuild
  std::string error;           ///< non-empty for reconstruction failures
};

/// Outcome of `verify_resume`.
struct VerifyResumeReport {
  /// Records matching the session's run identity (cached ones included —
  /// they are replayable even though only non-cached ones are checkable, so
  /// `matched == 0` on a non-empty log means a foreign log, not bad luck).
  std::size_t matched = 0;
  std::size_t checked = 0;  ///< records actually re-simulated
  std::vector<VerifyResumeMismatch> mismatches;
  bool ok() const { return mismatches.empty(); }
};

/// Guard against silently forking a resumed run: re-simulate a
/// deterministic sample of the log's replayable trials (every k-th matched
/// record, k chosen so at most `max_checks` simulator calls are spent) and
/// compare bit-for-bit against the logged times.  Both sides are
/// deterministic functions of (schedule, seed, trial index), so any
/// difference means the simulator, hardware model, or featured noise draw
/// changed since the log was written — resuming would replay times the
/// current code can no longer reproduce.  Consumes no tuning trials.
VerifyResumeReport verify_resume(const TuningSession& session,
                                 const std::vector<TuningRecord>& records,
                                 std::size_t max_checks = 16);

}  // namespace harl
