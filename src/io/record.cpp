#include "io/record.hpp"

#include <string_view>

#include "io/json.hpp"

namespace harl {

bool TuningRecord::operator==(const TuningRecord& o) const {
  return version == o.version && network == o.network && task == o.task &&
         task_index == o.task_index && hardware_fp == o.hardware_fp &&
         policy == o.policy && seed == o.seed && sketch_id == o.sketch_id &&
         sketch_tag == o.sketch_tag && stages == o.stages &&
         time_ms == o.time_ms && trial_index == o.trial_index &&
         cached == o.cached && fail == o.fail && task_sig == o.task_sig &&
         hw_sim == o.hw_sim && experience_fp == o.experience_fp &&
         value_fp == o.value_fp;
}

std::vector<StageDecision> decisions_from_schedule(const Schedule& sched) {
  std::vector<StageDecision> out;
  out.reserve(sched.stages.size());
  for (const StageSchedule& ss : sched.stages) {
    StageDecision d;
    d.tiles.reserve(ss.tiles.size());
    for (const TileVector& t : ss.tiles) d.tiles.push_back(t.factors);
    d.compute_at = ss.compute_at;
    d.parallel_depth = ss.parallel_depth;
    d.unroll_index = ss.unroll_index;
    out.push_back(std::move(d));
  }
  return out;
}

using json::append_int;

std::string record_to_json(const TuningRecord& rec) {
  std::string out;
  out.reserve(512);
  out += "{\"v\":";
  append_int(&out, rec.version);
  out += ",\"net\":";
  json::append_escaped(&out, rec.network);
  out += ",\"task\":";
  json::append_escaped(&out, rec.task);
  out += ",\"task_index\":";
  append_int(&out, rec.task_index);
  out += ",\"hw\":";
  append_int(&out, rec.hardware_fp);
  out += ",\"policy\":";
  json::append_escaped(&out, rec.policy);
  out += ",\"seed\":";
  append_int(&out, rec.seed);
  out += ",\"sketch\":";
  append_int(&out, rec.sketch_id);
  out += ",\"tag\":";
  json::append_escaped(&out, rec.sketch_tag);
  out += ",\"stages\":[";
  for (std::size_t s = 0; s < rec.stages.size(); ++s) {
    const StageDecision& d = rec.stages[s];
    out += s ? ",{\"t\":[" : "{\"t\":[";
    for (std::size_t a = 0; a < d.tiles.size(); ++a) {
      out += a ? ",[" : "[";
      for (std::size_t i = 0; i < d.tiles[a].size(); ++i) {
        if (i) out += ',';
        append_int(&out, d.tiles[a][i]);
      }
      out += ']';
    }
    out += "],\"ca\":";
    append_int(&out, d.compute_at);
    out += ",\"par\":";
    append_int(&out, d.parallel_depth);
    out += ",\"unr\":";
    append_int(&out, d.unroll_index);
    out += '}';
  }
  out += "],\"ms\":";
  json::append_double(&out, rec.time_ms);
  out += ",\"trial\":";
  append_int(&out, rec.trial_index);
  out += rec.cached ? ",\"cached\":true" : ",\"cached\":false";
  // Optional failure provenance: omitted when the measurement succeeded, so
  // healthy logs stay byte-identical to those of builds without the field.
  if (!rec.fail.empty()) {
    out += ",\"fail\":";
    json::append_escaped(&out, rec.fail);
  }
  // Optional transfer provenance: omitted when empty, so records without it
  // (and re-serialized old records) stay byte-identical to their source.
  if (!rec.task_sig.empty()) {
    out += ",\"sig\":";
    json::append_escaped(&out, rec.task_sig);
  }
  if (!rec.hw_sim.empty()) {
    out += ",\"hwv\":[";
    for (std::size_t i = 0; i < rec.hw_sim.size(); ++i) {
      if (i) out += ',';
      json::append_double(&out, rec.hw_sim[i]);
    }
    out += ']';
  }
  if (rec.experience_fp != 0) {
    out += ",\"xm\":";
    append_int(&out, rec.experience_fp);
  }
  if (rec.value_fp != 0) {
    out += ",\"vm\":";
    append_int(&out, rec.value_fp);
  }
  out += '}';
  return out;
}

namespace {

using json::Kind;

// Record members, in the order `read_record` checks them.
enum Field {
  kV, kNet, kTask, kPolicy, kTag, kTaskIndex, kHw, kSeed, kSketch, kMs,
  kTrial, kCached, kFail, kSig, kHwv, kXm, kVm, kStages, kNumFields
};
constexpr std::string_view kFieldNames[kNumFields] = {
    "v",  "net",   "task",   "policy", "tag", "task_index", "hw",
    "seed", "sketch", "ms",  "trial",  "cached", "fail", "sig",
    "hwv", "xm",   "vm",     "stages"};

// Stage members, in check order.
enum StageField { kT, kCa, kPar, kUnr, kNumStageFields };
constexpr std::string_view kStageFieldNames[kNumStageFields] = {"t", "ca",
                                                                "par", "unr"};

/// Field checks shared by the record and its stages; each fills `*error` and
/// returns false.
bool require(const json::Member& m, std::string_view key, std::string* error) {
  if (m.present) return true;
  *error = "missing required field \"" + std::string(key) + "\"";
  return false;
}

bool check_kind(const json::Member& m, std::string_view key, Kind kind,
                const char* what, std::string* error) {
  if (m.kind == kind) return true;
  *error = "field \"" + std::string(key) + "\" is not " + what;
  return false;
}

bool require_kind(const json::Member& m, std::string_view key, Kind kind,
                  const char* what, std::string* error) {
  return require(m, key, error) && check_kind(m, key, kind, what, error);
}

std::string stage_error(std::size_t s, const char* what) {
  return "stage " + std::to_string(s) + " " + what;
}

/// Decodes one "t" array into `*tiles`.  `*bad` names the first tile vector
/// that is not an array or factor that is not a number (nullptr if none).
bool read_tiles(json::Cursor& c, std::vector<std::vector<std::int64_t>>* tiles,
                const char** bad) {
  *bad = nullptr;
  std::size_t n = 0;
  Kind kind;
  c.enter_array();
  while (c.next_item()) {
    if (!c.peek(&kind)) return false;
    if (n == tiles->size()) tiles->emplace_back();
    std::vector<std::int64_t>& factors = (*tiles)[n++];
    if (kind != Kind::kArray) {
      if (*bad == nullptr) *bad = "tile vector is not an array";
      if (!c.skip_value()) return false;
      continue;
    }
    factors.clear();
    bool numeric = true;
    if (!json::read_numbers(
            c,
            [&factors](std::string_view token) {
              factors.push_back(json::number_to_int64(token, 0));
            },
            &numeric)) {
      return false;
    }
    if (!numeric && *bad == nullptr) *bad = "tile factor is not a number";
  }
  tiles->resize(n);
  return c.ok();
}

/// Decodes stage object `s` into `*d`; the first field error of the stage
/// goes to `*error` unless an earlier stage already set one.
bool read_stage(json::Cursor& c, std::size_t s, StageDecision* d,
                std::string* error) {
  json::Members<kNumStageFields> m(kStageFieldNames);
  const char* bad_tiles = nullptr;
  const bool read = m.read(c, [&](std::size_t f, Kind kind) {
    return f == kT && kind == Kind::kArray ? read_tiles(c, &d->tiles, &bad_tiles)
                                           : c.skip_value();
  });
  if (!read) return false;
  if (!error->empty()) return true;
  if (!require(m[kT], "t", error)) return true;
  if (m[kT].kind != Kind::kArray) {
    *error = stage_error(s, "tiles are not an array");
    return true;
  }
  if (bad_tiles != nullptr) {
    *error = stage_error(s, bad_tiles);
    return true;
  }
  for (int f = kCa; f < kNumStageFields; ++f) {
    if (!require_kind(m[f], kStageFieldNames[f], Kind::kNumber, "a number",
                      error)) {
      return true;
    }
  }
  d->compute_at = static_cast<int>(m[kCa].int64(0));
  d->parallel_depth = static_cast<int>(m[kPar].int64(0));
  d->unroll_index = static_cast<int>(m[kUnr].int64(0));
  return true;
}

/// Decodes a "stages" array into `*stages`, reusing its capacity.
bool read_stages(json::Cursor& c, std::vector<StageDecision>* stages,
                 std::string* error) {
  error->clear();
  std::size_t n = 0;
  Kind kind;
  c.enter_array();
  while (c.next_item()) {
    if (!c.peek(&kind)) return false;
    if (n == stages->size()) stages->emplace_back();
    const std::size_t s = n++;
    if (kind == Kind::kObject) {
      if (!read_stage(c, s, &(*stages)[s], error)) return false;
      continue;
    }
    if (error->empty()) *error = stage_error(s, "is not an object");
    if (!c.skip_value()) return false;
  }
  stages->resize(n);
  return c.ok();
}

}  // namespace

// One pass over the value pulls every member into the table (the arrays
// straight into `*rec`); the field checks run afterwards, in a fixed order,
// so a syntax error anywhere in the value is reported before any field
// error.
bool read_record(json::Cursor& c, TuningRecord* rec, std::string* error) {
  json::Members<kNumFields> m(kFieldNames);
  bool hwv_numeric = true;
  std::string stages_error;
  rec->hw_sim.clear();
  error->clear();

  Kind kind;
  if (!c.peek(&kind)) return false;
  if (kind != Kind::kObject) {
    if (!c.skip_value()) return false;
    *error = "record line is not a JSON object";
    return true;
  }
  const bool read = m.read(c, [&](std::size_t f, Kind k) {
    if (f == kHwv && k == Kind::kArray) {
      rec->hw_sim.clear();
      return json::read_numbers(
          c,
          [rec](std::string_view token) {
            rec->hw_sim.push_back(json::number_to_double(token, 0));
          },
          &hwv_numeric);
    }
    if (f == kStages && k == Kind::kArray) {
      return read_stages(c, &rec->stages, &stages_error);
    }
    return c.skip_value();
  });
  if (!read) return false;

  auto required = [&](int f, Kind k, const char* what) {
    return require_kind(m[f], kFieldNames[f], k, what, error);
  };
  auto optional = [&](int f, Kind k, const char* what) {
    return !m[f].present || check_kind(m[f], kFieldNames[f], k, what, error);
  };

  if (!required(kV, Kind::kNumber, "a number")) return true;
  rec->version = static_cast<int>(m[kV].int64(0));
  if (rec->version > kRecordSchemaVersion) {
    *error = "incompatible version " + std::to_string(rec->version) +
             " (reader supports <= " + std::to_string(kRecordSchemaVersion) + ")";
    return true;
  }
  for (int f : {kNet, kTask, kPolicy, kTag}) {
    if (!required(f, Kind::kString, "a string")) return true;
  }
  m[kNet].string(&rec->network);
  m[kTask].string(&rec->task);
  m[kPolicy].string(&rec->policy);
  m[kTag].string(&rec->sketch_tag);
  for (int f = kTaskIndex; f <= kTrial; ++f) {
    if (!required(f, Kind::kNumber, "a number")) return true;
  }
  rec->task_index = static_cast<int>(m[kTaskIndex].int64(-1));
  rec->hardware_fp = m[kHw].uint64(0);
  rec->seed = m[kSeed].uint64(0);
  rec->sketch_id = static_cast<int>(m[kSketch].int64(0));
  rec->time_ms = m[kMs].number(0);
  rec->trial_index = m[kTrial].int64(0);
  if (!required(kCached, Kind::kBool, "a boolean")) return true;
  rec->cached = m[kCached].boolean();

  // Optional fields (absent in records written before the features landed).
  if (!optional(kFail, Kind::kString, "a string")) return true;
  m[kFail].string(&rec->fail);
  if (!optional(kSig, Kind::kString, "a string")) return true;
  m[kSig].string(&rec->task_sig);
  if (!optional(kHwv, Kind::kArray, "an array")) return true;
  if (!hwv_numeric) {
    *error = "field \"hwv\" has a non-numeric entry";
    return true;
  }
  if (!optional(kXm, Kind::kNumber, "a number")) return true;
  rec->experience_fp = m[kXm].uint64(0);
  if (!optional(kVm, Kind::kNumber, "a number")) return true;
  rec->value_fp = m[kVm].uint64(0);

  if (!required(kStages, Kind::kArray, "an array")) return true;
  if (!stages_error.empty()) *error = std::move(stages_error);
  return true;
}

bool record_from_json(const std::string& line, TuningRecord* rec,
                      std::string* error) {
  json::ParseError perr;
  json::Cursor c(line, &perr);
  std::string field_error;
  if (!read_record(c, rec, &field_error) || !c.finish()) {
    *error = perr.to_string();
    return false;
  }
  if (!field_error.empty()) {
    *error = std::move(field_error);
    return false;
  }
  return true;
}

Schedule schedule_from_record(const TuningRecord& rec,
                              const std::vector<Sketch>& sketches,
                              int num_unroll_options, std::string* error) {
  Schedule none;
  const Sketch* sketch = nullptr;
  for (const Sketch& sk : sketches) {
    if (sk.sketch_id == rec.sketch_id) {
      sketch = &sk;
      break;
    }
  }
  if (sketch == nullptr) {
    *error = "unknown sketch id " + std::to_string(rec.sketch_id) + " for task " +
             rec.task;
    return none;
  }
  if (!rec.sketch_tag.empty() && sketch->tag != rec.sketch_tag) {
    *error = "sketch tag mismatch: record \"" + rec.sketch_tag +
             "\" vs generated \"" + sketch->tag + "\"";
    return none;
  }
  Schedule sched;
  sched.sketch = sketch;
  sched.stages.resize(rec.stages.size());
  for (std::size_t s = 0; s < rec.stages.size(); ++s) {
    const StageDecision& d = rec.stages[s];
    StageSchedule& ss = sched.stages[s];
    ss.tiles.reserve(d.tiles.size());
    for (const auto& factors : d.tiles) {
      TileVector t;
      t.factors = factors;
      ss.tiles.push_back(std::move(t));
    }
    ss.compute_at = d.compute_at;
    ss.parallel_depth = d.parallel_depth;
    ss.unroll_index = d.unroll_index;
  }
  std::string invalid = validate_schedule(sched, num_unroll_options);
  if (!invalid.empty()) {
    *error = "reconstructed schedule invalid: " + invalid;
    return none;
  }
  return sched;
}

}  // namespace harl
