#include "io/record_logger.hpp"

#include "search/task_scheduler.hpp"

namespace harl {

TuningRecord make_tuning_record(const TaskScheduler& scheduler, int task,
                                const MeasuredRecord& rec) {
  TuningRecord out;
  out.version = kRecordSchemaVersion;
  out.network = scheduler.network().name;
  out.task = scheduler.task(task).graph().name();
  out.task_index = task;
  out.hardware_fp = scheduler.hardware().fingerprint();
  out.policy = scheduler.options().policy_name;
  out.seed = scheduler.options().seed;
  out.sketch_id = rec.sched.sketch->sketch_id;
  out.sketch_tag = rec.sched.sketch->tag;
  out.stages = decisions_from_schedule(rec.sched);
  // A failed measurement logs no latency — time_ms 0 plus the failure reason,
  // never the in-memory +inf sentinel (and never a fake time).
  out.time_ms = rec.failed() ? 0 : rec.time_ms;
  out.fail = measure_status_name(rec.status);
  out.trial_index = rec.trial_index;
  out.cached = rec.cached;
  out.task_sig = scheduler.task(task).graph().structure_signature();
  out.hw_sim = scheduler.hardware().similarity_vector();
  out.experience_fp = scheduler.experience_fingerprint();
  out.value_fp = scheduler.value_fingerprint();
  return out;
}

bool RecordLogger::open(const std::string& path, bool append) {
  skip_ = 0;
  return writer_.open(path, append);
}

void RecordLogger::on_records(const TaskScheduler& scheduler, int task,
                              const std::vector<MeasuredRecord>& records) {
  if (!writer_.is_open()) return;
  bool wrote = false;
  // The provenance block (network/task/hardware/policy/seed/signature/
  // similarity vector/experience fingerprint) is constant across the batch;
  // build it once and refill only the per-measurement fields.
  TuningRecord base;
  for (const MeasuredRecord& rec : records) {
    if (skip_ > 0) {
      --skip_;
      continue;
    }
    if (!wrote) {
      base = make_tuning_record(scheduler, task, rec);
    } else {
      base.sketch_id = rec.sched.sketch->sketch_id;
      base.sketch_tag = rec.sched.sketch->tag;
      base.stages = decisions_from_schedule(rec.sched);
      base.time_ms = rec.failed() ? 0 : rec.time_ms;
      base.fail = measure_status_name(rec.status);
      base.trial_index = rec.trial_index;
      base.cached = rec.cached;
    }
    writer_.write(base);
    wrote = true;
  }
  if (wrote) writer_.flush();
}

}  // namespace harl
