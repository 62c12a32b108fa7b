#include "io/record.hpp"

#include <charconv>
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

namespace {

template <typename Int>
void append_int(std::string* out, Int v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

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

using Kind = json::Value::Kind;

// Record members, in the order `record_from_json` checks them.
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

/// The last occurrence of a member (duplicate keys: last one wins).
struct Member {
  bool present = false;
  Kind kind = Kind::kNull;
  std::string_view number;  ///< raw token when `kind == kNumber`
};

template <std::size_t N>
int field_index(const std::string& key, const std::string_view (&names)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    if (key == names[i]) return static_cast<int>(i);
  }
  return static_cast<int>(N);
}

/// Field checks shared by the record and its stages; each fills `*error` and
/// returns false.
bool require(const Member& m, std::string_view key, std::string* error) {
  if (m.present) return true;
  *error = "missing required field \"" + std::string(key) + "\"";
  return false;
}

bool check_kind(const Member& m, std::string_view key, Kind kind,
                const char* what, std::string* error) {
  if (m.kind == kind) return true;
  *error = "field \"" + std::string(key) + "\" is not " + what;
  return false;
}

bool require_kind(const Member& m, std::string_view key, Kind kind,
                  const char* what, std::string* error) {
  return require(m, key, error) && check_kind(m, key, kind, what, error);
}

std::string stage_error(std::size_t s, const char* what) {
  return "stage " + std::to_string(s) + " " + what;
}

/// Decodes an array of numbers into `*out` through `convert`; `*numeric`
/// turns false when an item is not a number.
template <typename T, typename Convert>
bool read_numbers(json::Cursor& c, std::vector<T>* out, Convert convert,
                  bool* numeric) {
  out->clear();
  *numeric = true;
  Kind kind;
  std::string_view token;
  c.enter_array();
  while (c.next_item()) {
    if (!c.peek(&kind)) return false;
    if (kind == Kind::kNumber) {
      if (!c.read_number(&token)) return false;
      out->push_back(convert(token));
      continue;
    }
    *numeric = false;
    if (!c.skip_value()) return false;
  }
  return c.ok();
}

std::int64_t to_int64(std::string_view token) {
  return json::number_to_int64(token, 0);
}

double to_double(std::string_view token) {
  return json::number_to_double(token, 0);
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
    ++n;
    if (kind != Kind::kArray) {
      if (*bad == nullptr) *bad = "tile vector is not an array";
      if (!c.skip_value()) return false;
      continue;
    }
    bool numeric = true;
    if (!read_numbers(c, &(*tiles)[n - 1], to_int64, &numeric)) return false;
    if (!numeric && *bad == nullptr) *bad = "tile factor is not a number";
  }
  tiles->resize(n);
  return c.ok();
}

/// Decodes stage object `s` into `*d`; the first field error of the stage
/// goes to `*error` unless an earlier stage already set one.
bool read_stage(json::Cursor& c, std::size_t s, StageDecision* d,
                std::string* key, std::string* error) {
  Member m[kNumStageFields];
  const char* bad_tiles = nullptr;
  Kind kind;
  c.enter_object();
  while (c.next_member(key)) {
    const int f = field_index(*key, kStageFieldNames);
    if (f == kNumStageFields) {
      if (!c.skip_value()) return false;
      continue;
    }
    if (!c.peek(&kind)) return false;
    m[f] = Member{true, kind, {}};
    bool consumed;
    if (kind == Kind::kNumber) {
      consumed = c.read_number(&m[f].number);
    } else if (kind == Kind::kArray && f == kT) {
      consumed = read_tiles(c, &d->tiles, &bad_tiles);
    } else {
      consumed = c.skip_value();
    }
    if (!consumed) return false;
  }
  if (!c.ok()) return false;
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
  d->compute_at = static_cast<int>(json::number_to_int64(m[kCa].number, 0));
  d->parallel_depth = static_cast<int>(json::number_to_int64(m[kPar].number, 0));
  d->unroll_index = static_cast<int>(json::number_to_int64(m[kUnr].number, 0));
  return true;
}

/// Decodes a "stages" array into `*stages`, reusing its capacity.
bool read_stages(json::Cursor& c, std::vector<StageDecision>* stages,
                 std::string* key, std::string* error) {
  error->clear();
  std::size_t n = 0;
  Kind kind;
  c.enter_array();
  while (c.next_item()) {
    if (!c.peek(&kind)) return false;
    if (n == stages->size()) stages->emplace_back();
    const std::size_t s = n++;
    if (kind == Kind::kObject) {
      if (!read_stage(c, s, &(*stages)[s], key, error)) return false;
      continue;
    }
    if (error->empty()) *error = stage_error(s, "is not an object");
    if (!c.skip_value()) return false;
  }
  stages->resize(n);
  return c.ok();
}

std::string* string_field(TuningRecord* rec, int f) {
  switch (f) {
    case kNet: return &rec->network;
    case kTask: return &rec->task;
    case kPolicy: return &rec->policy;
    case kTag: return &rec->sketch_tag;
    case kFail: return &rec->fail;
    case kSig: return &rec->task_sig;
    default: return nullptr;
  }
}

}  // namespace

// One pass over the value pulls every member straight into `*rec`; the
// field checks run afterwards, in a fixed order, so a syntax error anywhere
// in the value is reported before any field error.
bool read_record(json::Cursor& c, TuningRecord* rec, std::string* error) {
  Member m[kNumFields];
  bool hwv_numeric = true;
  std::string stages_error;
  std::string key;
  rec->fail.clear();
  rec->task_sig.clear();
  rec->hw_sim.clear();
  error->clear();

  Kind kind;
  if (!c.peek(&kind)) return false;
  if (kind != Kind::kObject) {
    if (!c.skip_value()) return false;
    *error = "record line is not a JSON object";
    return true;
  }
  c.enter_object();
  while (c.next_member(&key)) {
    const int f = field_index(key, kFieldNames);
    if (f == kNumFields) {
      if (!c.skip_value()) return false;
      continue;
    }
    if (!c.peek(&kind)) return false;
    m[f] = Member{true, kind, {}};
    std::string* str = string_field(rec, f);
    bool consumed;
    if (kind == Kind::kNumber) {
      consumed = c.read_number(&m[f].number);
    } else if (kind == Kind::kString && str != nullptr) {
      consumed = c.read_string(str);
    } else if (kind == Kind::kBool && f == kCached) {
      consumed = c.read_bool(&rec->cached);
    } else if (kind == Kind::kArray && f == kHwv) {
      consumed = read_numbers(c, &rec->hw_sim, to_double, &hwv_numeric);
    } else if (kind == Kind::kArray && f == kStages) {
      consumed = read_stages(c, &rec->stages, &key, &stages_error);
    } else {
      consumed = c.skip_value();
    }
    if (!consumed) return false;
  }
  if (!c.ok()) return false;

  auto required = [&](int f, Kind k, const char* what) {
    return require_kind(m[f], kFieldNames[f], k, what, error);
  };
  auto optional = [&](int f, Kind k, const char* what) {
    return !m[f].present || check_kind(m[f], kFieldNames[f], k, what, error);
  };
  auto int_of = [&](int f, std::int64_t fallback) {
    return json::number_to_int64(m[f].number, fallback);
  };
  auto uint_of = [&](int f) { return json::number_to_uint64(m[f].number, 0); };

  if (!required(kV, Kind::kNumber, "a number")) return true;
  rec->version = static_cast<int>(int_of(kV, 0));
  if (rec->version > kRecordSchemaVersion) {
    *error = "incompatible version " + std::to_string(rec->version) +
             " (reader supports <= " + std::to_string(kRecordSchemaVersion) + ")";
    return true;
  }
  for (int f : {kNet, kTask, kPolicy, kTag}) {
    if (!required(f, Kind::kString, "a string")) return true;
  }
  for (int f = kTaskIndex; f <= kTrial; ++f) {
    if (!required(f, Kind::kNumber, "a number")) return true;
  }
  rec->task_index = static_cast<int>(int_of(kTaskIndex, -1));
  rec->hardware_fp = uint_of(kHw);
  rec->seed = uint_of(kSeed);
  rec->sketch_id = static_cast<int>(int_of(kSketch, 0));
  rec->time_ms = json::number_to_double(m[kMs].number, 0);
  rec->trial_index = int_of(kTrial, 0);
  if (!required(kCached, Kind::kBool, "a boolean")) return true;

  // Optional fields (absent in records written before the features landed).
  if (!optional(kFail, Kind::kString, "a string")) return true;
  if (!optional(kSig, Kind::kString, "a string")) return true;
  if (!optional(kHwv, Kind::kArray, "an array")) return true;
  if (!hwv_numeric) {
    *error = "field \"hwv\" has a non-numeric entry";
    return true;
  }
  if (!optional(kXm, Kind::kNumber, "a number")) return true;
  rec->experience_fp = m[kXm].present ? uint_of(kXm) : 0;
  if (!optional(kVm, Kind::kNumber, "a number")) return true;
  rec->value_fp = m[kVm].present ? uint_of(kVm) : 0;

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
