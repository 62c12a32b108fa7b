// Differential tests of the one-pass record codec, the JSON cursor and the
// one-pass knowledge-cache decoder against the reference implementations
// they replaced: a recursive-descent parser building a `ref::Value` tree
// (tests/support/json_dom.hpp), a DOM walk over it, and a DOM build plus
// `dump()` for encoding; for caches, the DOM with every embedded record
// dumped and decoded again.  The record and cache references live here, in
// `ref` and `ref_cache`; the library keeps one path per direction.  The
// daemon's wire protocol and journal run under the same mutations, checked
// against their own encoders and against the DOM codecs they replaced
// (tests/support/dom_decoders.hpp), as do the GBDT model file and the
// shard-snapshot manifest.

#include <gtest/gtest.h>

#include <cctype>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "cost/gbdt_io.hpp"
#include "io/record.hpp"
#include "sched/schedule.hpp"
#include "sched/sketch.hpp"
#include "serve/knowledge_cache.hpp"
#include "serve/shard_snapshot.hpp"
#include "server/protocol.hpp"
#include "support/dom_decoders.hpp"
#include "support/json_dom.hpp"
#include "util/rng.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

// ================================================================ oracle

namespace ref {

using harl::ref::dump;
using harl::ref::escape;
using harl::ref::gbdt_from_json;
using harl::ref::gbdt_to_json;
using harl::ref::journal_from_json;
using harl::ref::journal_to_json;
using harl::ref::parse;
using harl::ref::parse_manifest;
using harl::ref::request_from_json;
using harl::ref::request_to_json;
using harl::ref::response_from_json;
using harl::ref::response_to_json;
using harl::ref::Value;
using json::ParseError;

std::string format_double(double v) {
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

double as_double(const Value& v, double fallback = 0) {
  if (!v.is_number()) return fallback;
  errno = 0;
  char* end = nullptr;
  double d = std::strtod(v.raw_number().c_str(), &end);
  if (end == v.raw_number().c_str() || errno == ERANGE) return fallback;
  return d;
}

std::int64_t as_int64(const Value& v, std::int64_t fallback = 0) {
  if (!v.is_number()) return fallback;
  const char* s = v.raw_number().c_str();
  errno = 0;
  char* end = nullptr;
  long long n = std::strtoll(s, &end, 10);
  if (end == s || errno == ERANGE) return fallback;
  if (*end == '.' || *end == 'e' || *end == 'E') {
    double d = as_double(v, static_cast<double>(fallback));
    // The reference cast was undefined outside int64; the library defines
    // it as "does not fit", and so does the oracle.
    if (!(d >= -0x1p63 && d < 0x1p63)) return fallback;
    return static_cast<std::int64_t>(d);
  }
  return n;
}

std::uint64_t as_uint64(const Value& v, std::uint64_t fallback = 0) {
  if (!v.is_number()) return fallback;
  const std::string& s = v.raw_number();
  if (!s.empty() && s[0] == '-') return fallback;
  errno = 0;
  char* end = nullptr;
  unsigned long long n = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || errno == ERANGE) return fallback;
  return n;
}

Value int_value(std::int64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(n));
  return Value::number_raw(buf);
}

Value uint_value(std::uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(n));
  return Value::number_raw(buf);
}

std::string record_to_json(const TuningRecord& rec) {
  Value obj = Value::object();
  obj.set("v", int_value(rec.version));
  obj.set("net", Value::string(rec.network));
  obj.set("task", Value::string(rec.task));
  obj.set("task_index", int_value(rec.task_index));
  obj.set("hw", uint_value(rec.hardware_fp));
  obj.set("policy", Value::string(rec.policy));
  obj.set("seed", uint_value(rec.seed));
  obj.set("sketch", int_value(rec.sketch_id));
  obj.set("tag", Value::string(rec.sketch_tag));
  Value stages = Value::array();
  for (const StageDecision& d : rec.stages) {
    Value s = Value::object();
    Value tiles = Value::array();
    for (const auto& tv : d.tiles) {
      Value axis = Value::array();
      for (std::int64_t f : tv) axis.push_back(int_value(f));
      tiles.push_back(std::move(axis));
    }
    s.set("t", std::move(tiles));
    s.set("ca", int_value(d.compute_at));
    s.set("par", int_value(d.parallel_depth));
    s.set("unr", int_value(d.unroll_index));
    stages.push_back(std::move(s));
  }
  obj.set("stages", std::move(stages));
  obj.set("ms", Value::number_raw(format_double(rec.time_ms)));
  obj.set("trial", int_value(rec.trial_index));
  obj.set("cached", Value::boolean(rec.cached));
  if (!rec.fail.empty()) obj.set("fail", Value::string(rec.fail));
  if (!rec.task_sig.empty()) obj.set("sig", Value::string(rec.task_sig));
  if (!rec.hw_sim.empty()) {
    Value hwv = Value::array();
    for (double d : rec.hw_sim) hwv.push_back(Value::number_raw(format_double(d)));
    obj.set("hwv", std::move(hwv));
  }
  if (rec.experience_fp != 0) obj.set("xm", uint_value(rec.experience_fp));
  if (rec.value_fp != 0) obj.set("vm", uint_value(rec.value_fp));
  return dump(obj);
}

bool require(const Value& obj, const char* key, const Value** out,
             std::string* error) {
  const Value* v = obj.find(key);
  if (v == nullptr) {
    *error = std::string("missing required field \"") + key + "\"";
    return false;
  }
  *out = v;
  return true;
}

bool get_string(const Value& obj, const char* key, std::string* out,
                std::string* error) {
  const Value* v = nullptr;
  if (!require(obj, key, &v, error)) return false;
  if (!v->is_string()) {
    *error = std::string("field \"") + key + "\" is not a string";
    return false;
  }
  *out = v->as_string();
  return true;
}

bool get_number(const Value& obj, const char* key, const Value** out,
                std::string* error) {
  if (!require(obj, key, out, error)) return false;
  if (!(*out)->is_number()) {
    *error = std::string("field \"") + key + "\" is not a number";
    return false;
  }
  return true;
}

bool record_from_json(const std::string& line, TuningRecord* rec,
                      std::string* error) {
  ParseError perr;
  Value obj = ref::parse(line, &perr);
  if (!perr.ok) {
    *error = perr.to_string();
    return false;
  }
  if (!obj.is_object()) {
    *error = "record line is not a JSON object";
    return false;
  }
  const Value* v = nullptr;
  if (!get_number(obj, "v", &v, error)) return false;
  TuningRecord out;
  out.version = static_cast<int>(as_int64(*v));
  if (out.version > kRecordSchemaVersion) {
    *error = "incompatible version " + std::to_string(out.version) +
             " (reader supports <= " + std::to_string(kRecordSchemaVersion) + ")";
    return false;
  }
  if (!get_string(obj, "net", &out.network, error)) return false;
  if (!get_string(obj, "task", &out.task, error)) return false;
  if (!get_string(obj, "policy", &out.policy, error)) return false;
  if (!get_string(obj, "tag", &out.sketch_tag, error)) return false;
  if (!get_number(obj, "task_index", &v, error)) return false;
  out.task_index = static_cast<int>(as_int64(*v, -1));
  if (!get_number(obj, "hw", &v, error)) return false;
  out.hardware_fp = as_uint64(*v);
  if (!get_number(obj, "seed", &v, error)) return false;
  out.seed = as_uint64(*v);
  if (!get_number(obj, "sketch", &v, error)) return false;
  out.sketch_id = static_cast<int>(as_int64(*v));
  if (!get_number(obj, "ms", &v, error)) return false;
  out.time_ms = as_double(*v);
  if (!get_number(obj, "trial", &v, error)) return false;
  out.trial_index = as_int64(*v);
  if (!require(obj, "cached", &v, error)) return false;
  if (!v->is_bool()) {
    *error = "field \"cached\" is not a boolean";
    return false;
  }
  out.cached = v->as_bool();
  if (const Value* fail = obj.find("fail"); fail != nullptr) {
    if (!fail->is_string()) {
      *error = "field \"fail\" is not a string";
      return false;
    }
    out.fail = fail->as_string();
  }
  if (const Value* sig = obj.find("sig"); sig != nullptr) {
    if (!sig->is_string()) {
      *error = "field \"sig\" is not a string";
      return false;
    }
    out.task_sig = sig->as_string();
  }
  if (const Value* hwv = obj.find("hwv"); hwv != nullptr) {
    if (!hwv->is_array()) {
      *error = "field \"hwv\" is not an array";
      return false;
    }
    for (const Value& d : hwv->items()) {
      if (!d.is_number()) {
        *error = "field \"hwv\" has a non-numeric entry";
        return false;
      }
      out.hw_sim.push_back(as_double(d));
    }
  }
  if (const Value* xm = obj.find("xm"); xm != nullptr) {
    if (!xm->is_number()) {
      *error = "field \"xm\" is not a number";
      return false;
    }
    out.experience_fp = as_uint64(*xm);
  }
  if (const Value* vm = obj.find("vm"); vm != nullptr) {
    if (!vm->is_number()) {
      *error = "field \"vm\" is not a number";
      return false;
    }
    out.value_fp = as_uint64(*vm);
  }
  if (!require(obj, "stages", &v, error)) return false;
  if (!v->is_array()) {
    *error = "field \"stages\" is not an array";
    return false;
  }
  for (std::size_t s = 0; s < v->items().size(); ++s) {
    const Value& sv = v->items()[s];
    if (!sv.is_object()) {
      *error = "stage " + std::to_string(s) + " is not an object";
      return false;
    }
    StageDecision d;
    const Value* f = nullptr;
    if (!require(sv, "t", &f, error)) return false;
    if (!f->is_array()) {
      *error = "stage " + std::to_string(s) + " tiles are not an array";
      return false;
    }
    for (const Value& axis : f->items()) {
      if (!axis.is_array()) {
        *error = "stage " + std::to_string(s) + " tile vector is not an array";
        return false;
      }
      std::vector<std::int64_t> factors;
      for (const Value& fv : axis.items()) {
        if (!fv.is_number()) {
          *error = "stage " + std::to_string(s) + " tile factor is not a number";
          return false;
        }
        factors.push_back(as_int64(fv));
      }
      d.tiles.push_back(std::move(factors));
    }
    if (!get_number(sv, "ca", &f, error)) return false;
    d.compute_at = static_cast<int>(as_int64(*f));
    if (!get_number(sv, "par", &f, error)) return false;
    d.parallel_depth = static_cast<int>(as_int64(*f));
    if (!get_number(sv, "unr", &f, error)) return false;
    d.unroll_index = static_cast<int>(as_int64(*f));
    out.stages.push_back(std::move(d));
  }
  *rec = std::move(out);
  return true;
}

}  // namespace ref

namespace ref_cache {

/// What the DOM decoder read: the options and the records, in file order.
struct Decoded {
  KnowledgeCacheOptions opts;
  std::vector<TuningRecord> records;
};

/// The knowledge-cache decoder the one-pass `cache_from_json` replaced, on
/// the reference parser.
bool cache_from_json(const std::string& text, Decoded* out, std::string* error) {
  json::ParseError perr;
  ref::Value doc = ref::parse(text, &perr);
  if (!perr.ok) {
    *error = "cache parse error: " + perr.to_string();
    return false;
  }
  if (!doc.is_object()) {
    *error = "cache document is not an object";
    return false;
  }
  const ref::Value* ver = doc.find("harl_kcache");
  if (ver == nullptr || !ver->is_number()) {
    *error = "not a knowledge-cache file (missing harl_kcache)";
    return false;
  }
  if (ver->as_int64() > kKnowledgeCacheVersion) {
    *error = "incompatible cache version " + std::to_string(ver->as_int64());
    return false;
  }

  KnowledgeCacheOptions opts;
  if (const ref::Value* v = doc.find("topk"); v != nullptr && v->is_number()) {
    opts.top_k = static_cast<int>(v->as_int64(opts.top_k));
  }
  if (const ref::Value* v = doc.find("min_score");
      v != nullptr && v->is_number()) {
    opts.min_score = v->as_double(opts.min_score);
  }
  if (const ref::Value* v = doc.find("penalty");
      v != nullptr && v->is_number()) {
    opts.time_penalty = v->as_double(opts.time_penalty);
  }
  if (const ref::Value* v = doc.find("rerank");
      v != nullptr && v->is_number()) {
    opts.rerank_k = static_cast<int>(v->as_int64(opts.rerank_k));
  }
  if (const ref::Value* v = doc.find("golden"); v != nullptr && v->is_bool()) {
    opts.golden_advice = v->as_bool();
  }

  std::vector<TuningRecord> records;
  const ref::Value* entries = doc.find("entries");
  if (entries != nullptr) {
    if (!entries->is_array()) {
      *error = "cache field \"entries\" is not an array";
      return false;
    }
    for (const ref::Value& e : entries->items()) {
      if (!e.is_object()) {
        *error = "cache entry is not an object";
        return false;
      }
      const ref::Value* recs = e.find("records");
      if (recs == nullptr || !recs->is_array()) {
        *error = "cache entry without a \"records\" array";
        return false;
      }
      for (const ref::Value& r : recs->items()) {
        TuningRecord rec;
        std::string rerr;
        if (!record_from_json(r.dump(), &rec, &rerr)) {
          *error = "embedded record invalid: " + rerr;
          return false;
        }
        records.push_back(std::move(rec));
      }
    }
  }
  out->opts = opts;
  out->records = std::move(records);
  return true;
}

/// The cache the DOM decoder built from what it read: every servable
/// record inserted in file order.
std::string cache_bytes(const Decoded& d) {
  KnowledgeCache cache(d.opts);
  for (const TuningRecord& rec : d.records) {
    if (rec.time_ms > 0 && rec.fail.empty()) cache.insert(rec);
  }
  return cache_to_json(cache);
}

}  // namespace ref_cache

// ============================================================ generators

std::uint64_t next_u64(Rng& rng) {
  return (static_cast<std::uint64_t>(rng.next_u32()) << 32) | rng.next_u32();
}

double from_bits(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// Names that exercise every escape class: quotes, backslash, the short
// escapes, a \u00XX control byte and multi-byte UTF-8.
const char* const kNames[] = {"fuzz_net", "bert_b1", "q\"uote\\back/slash",
                              "tab\tnl\ncr\rff\fbs\b", "ctl\x01\x1f end",
                              "utf8 \xc3\xa9\xe2\x82\xac"};

/// Random valid records across every sketch kind, optional fields included.
std::vector<TuningRecord> fuzz_records(Rng& rng) {
  std::vector<Subgraph> graphs;
  graphs.push_back(make_gemm(128, 96, 64, 1, "rt_gemm"));
  graphs.push_back(make_conv2d(1, 14, 14, 32, 64, 3, 1, 1, "rt_conv"));
  graphs.push_back(make_softmax(64, 256, "rt_softmax"));
  graphs.push_back(make_elementwise(1 << 12, 2.0, "rt_ew"));
  graphs.push_back(make_gemm_act(64, 64, 96, "tanh", "rt_fused"));
  graphs.push_back(make_depthwise_conv2d(1, 16, 16, 32, 3, 1, 1, "rt_dw"));
  const int kNumUnroll = 4;
  std::vector<TuningRecord> out;
  for (const Subgraph& graph : graphs) {
    for (const Sketch& sketch : generate_sketches(graph)) {
      for (int i = 0; i < 16; ++i) {
        Schedule sched = random_schedule(sketch, kNumUnroll, rng);
        TuningRecord rec;
        rec.network = kNames[rng.next_below(6)];
        rec.task = graph.name() + (rng.next_bool(0.2) ? kNames[rng.next_below(6)] : "");
        rec.task_index = rng.next_int(0, 30);
        rec.hardware_fp = next_u64(rng);
        rec.policy = rng.next_bool() ? "HARL" : "Ansor";
        rec.seed = next_u64(rng);
        rec.sketch_id = sketch.sketch_id;
        rec.sketch_tag = sketch.tag;
        rec.stages = decisions_from_schedule(sched);
        rec.time_ms = rng.next_bool(0.1) ? 0.0 : 0.001 + rng.next_double() * 10;
        rec.trial_index = rng.next_int(0, 5000);
        rec.cached = rng.next_bool(0.3);
        if (rng.next_bool(0.2)) rec.fail = rng.next_bool() ? "timeout" : kNames[3];
        if (rng.next_bool(0.4)) rec.task_sig = graph.structure_signature();
        if (rng.next_bool(0.4)) {
          for (int k = 0; k < 6; ++k) rec.hw_sim.push_back(rng.next_normal());
          rec.hw_sim.push_back(from_bits(next_u64(rng) & 0x000fffffffffffffULL));
        }
        if (rng.next_bool(0.3)) rec.experience_fp = next_u64(rng) | 1;
        if (rng.next_bool(0.3)) rec.value_fp = next_u64(rng) | 1;
        out.push_back(std::move(rec));
      }
    }
  }
  return out;
}

/// A random value of a random kind, for type swaps.
ref::Value random_value(Rng& rng) {
  using ref::Value;
  switch (rng.next_below(10)) {
    case 0: return Value::null();
    case 1: return Value::boolean(rng.next_bool());
    case 2: return Value::number_raw("7");
    case 3: return Value::number_raw("-3.25");
    case 4: return Value::string(rng.next_bool() ? "str" : "");
    case 5: return Value::array();
    case 6: {
      Value a = Value::array();
      a.push_back(Value::number_raw("1"));
      a.push_back(Value::string("x"));
      return a;
    }
    case 7: return Value::object();
    case 8: {
      Value o = Value::object();
      o.set("a", Value::number_raw("1"));
      return o;
    }
    default: {
      Value a = Value::array();
      Value inner = Value::array();
      inner.push_back(Value::number_raw("2"));
      a.push_back(std::move(inner));
      return a;
    }
  }
}

// Number tokens the integer and double conversions must agree on:
// fractional, negative, exponent, and out-of-range in every direction.
const char* const kNumberTokens[] = {
    "1.5",  "-2.7", "2e3",  "1E2",   "-0",   "0.0",  "-1",   "0",
    "3.999999", "99999999999999999999", "-9223372036854775809",
    "9223372036854775807", "-9223372036854775808", "18446744073709551615",
    "18446744073709551616", "1e400", "-1e400", "1e-400", "4.9e-324",
    "1e30", "-1e30", "2147483648", "-2147483649", "4294967296.5", "1e18"};

/// Every number-valued slot in a record DOM, for token replacement.
void collect_numbers(ref::Value& v, std::vector<ref::Value*>* out) {
  if (v.is_number()) out->push_back(&v);
  for (ref::Value& item : v.items()) collect_numbers(item, out);
  for (auto& member : v.members()) collect_numbers(member.second, out);
}

/// Every object in a record DOM (the record and its stages).
void collect_objects(ref::Value& v, std::vector<ref::Value*>* out) {
  if (v.is_object()) out->push_back(&v);
  for (ref::Value& item : v.items()) collect_objects(item, out);
  for (auto& member : v.members()) collect_objects(member.second, out);
}

/// Every array in a record DOM (stages, tiles, tile vectors, hwv).
void collect_arrays(ref::Value& v, std::vector<ref::Value*>* out) {
  if (v.is_array()) out->push_back(&v);
  for (ref::Value& item : v.items()) collect_arrays(item, out);
  for (auto& member : v.members()) collect_arrays(member.second, out);
}

/// One structural mutation of a record line, through the reference DOM.
std::string mutate_structure(const std::string& line, Rng& rng) {
  json::ParseError err;
  ref::Value doc = ref::parse(line, &err);
  if (!err.ok) return line;
  std::vector<ref::Value*> objects;
  collect_objects(doc, &objects);
  if (objects.empty()) return line;
  ref::Value& obj = *objects[rng.next_below(static_cast<std::uint32_t>(objects.size()))];
  auto& members = obj.members();
  switch (rng.next_below(6)) {
    case 0:  // delete a member
      if (!members.empty()) {
        members.erase(members.begin() + rng.next_below(static_cast<std::uint32_t>(members.size())));
      }
      break;
    case 1: {  // duplicate a member, before or after, maybe retyped
      if (members.empty()) break;
      auto copy = members[rng.next_below(static_cast<std::uint32_t>(members.size()))];
      if (rng.next_bool()) copy.second = random_value(rng);
      members.insert(members.begin() + rng.next_below(static_cast<std::uint32_t>(members.size() + 1)),
                     std::move(copy));
      break;
    }
    case 2:  // reorder
      for (std::size_t i = members.size(); i > 1; --i) {
        std::swap(members[i - 1], members[rng.next_below(static_cast<std::uint32_t>(i))]);
      }
      break;
    case 3:  // type swap of a member
      if (!members.empty()) {
        members[rng.next_below(static_cast<std::uint32_t>(members.size()))].second =
            random_value(rng);
      }
      break;
    case 4: {  // type swap of an array item (stage, tile vector, factor, hwv)
      std::vector<ref::Value*> arrays;
      collect_arrays(doc, &arrays);
      if (arrays.empty()) break;
      ref::Value& arr = *arrays[rng.next_below(static_cast<std::uint32_t>(arrays.size()))];
      if (!arr.items().empty()) {
        arr.items()[rng.next_below(static_cast<std::uint32_t>(arr.items().size()))] =
            random_value(rng);
      }
      break;
    }
    default: {  // replace a number token
      std::vector<ref::Value*> numbers;
      collect_numbers(doc, &numbers);
      if (numbers.empty()) break;
      *numbers[rng.next_below(static_cast<std::uint32_t>(numbers.size()))] = ref::Value::number_raw(
          kNumberTokens[rng.next_below(sizeof(kNumberTokens) / sizeof(kNumberTokens[0]))]);
      break;
    }
  }
  return ref::dump(doc);
}

/// An unknown member nesting `levels` containers around a scalar.
std::string nested_member(int levels, bool objects) {
  std::string open;
  std::string close;
  for (int i = 0; i < levels; ++i) {
    open += objects ? "{\"k\":" : "[";
    close += objects ? "}" : "]";
  }
  return "\"zz\":" + open + "1" + close;
}

/// One byte-level mutation: flip, insert or delete, biased toward JSON's
/// structural bytes so mutants reach past the first token.
std::string mutate_bytes(std::string line, Rng& rng) {
  static const char kBytes[] = "\"\\,:{}[]-.eE0123456789 \ntfnu/";
  const std::size_t pos = rng.next_below(static_cast<std::uint32_t>(line.size() + 1));
  char b = rng.next_bool(0.7) ? kBytes[rng.next_below(sizeof(kBytes) - 1)]
                              : static_cast<char>(rng.next_below(256));
  switch (rng.next_below(3)) {
    case 0:
      if (pos < line.size()) line[pos] = b;
      break;
    case 1:
      line.insert(pos, 1, b);
      break;
    default:
      if (pos < line.size()) line.erase(pos, 1);
      break;
  }
  return line;
}

// ============================================================ comparison

/// Decodes `line` with both codecs and expects the same verdict, error and
/// record.  `reused` carries state from earlier lines into the one-pass
/// decoder, which must not leak into the result.
void expect_same_decode(const std::string& line, TuningRecord* reused,
                        std::set<std::string>* errors, int* accepted) {
  TuningRecord want;
  std::string want_error;
  std::string got_error;
  const bool want_ok = ref::record_from_json(line, &want, &want_error);
  const bool got_ok = record_from_json(line, reused, &got_error);
  ASSERT_EQ(got_ok, want_ok) << line << "\nref: " << want_error
                             << "\nnew: " << got_error;
  if (!want_ok) {
    ASSERT_EQ(got_error, want_error) << line;
    // The message without its position, so "line 1, column 9" and
    // "column 10" count as one class.
    errors->insert(want_error.substr(want_error.find(':') + 1));
    return;
  }
  ++*accepted;
  ASSERT_TRUE(*reused == want) << line;
  ASSERT_EQ(record_to_json(*reused), ref::record_to_json(want)) << line;
}

/// Re-serializes the value at `c` through the cursor alone: containers by
/// walking them, a string by its raw token decoded with `append_unescaped`,
/// any other scalar by its token.
bool cursor_dump(json::Cursor& c, std::string* out) {
  json::Kind kind;
  if (!c.peek(&kind)) return false;
  std::string_view token;
  switch (kind) {
    case json::Kind::kObject: {
      std::string key;
      *out += '{';
      c.enter_object();
      while (c.next_member(&key)) {
        if (out->back() != '{') *out += ',';
        json::append_escaped(out, key);
        *out += ':';
        if (!cursor_dump(c, out)) return false;
      }
      *out += '}';
      return c.ok();
    }
    case json::Kind::kArray:
      *out += '[';
      c.enter_array();
      while (c.next_item()) {
        if (out->back() != '[') *out += ',';
        if (!cursor_dump(c, out)) return false;
      }
      *out += ']';
      return c.ok();
    case json::Kind::kString: {
      if (!c.read_token(kind, &token)) return false;
      std::string decoded;
      json::append_unescaped(&decoded, token);
      json::append_escaped(out, decoded);
      return true;
    }
    default:
      if (!c.read_token(kind, &token)) return false;
      out->append(token);
      return true;
  }
}

/// The cursor against the reference parser: the same verdict, error and
/// position, and the same value.
void expect_same_parse(const std::string& text) {
  json::ParseError got_err;
  json::Cursor c(text, &got_err);
  std::string got;
  const bool got_ok = cursor_dump(c, &got) && c.finish();
  json::ParseError want_err;
  ref::Value want = ref::parse(text, &want_err);
  ASSERT_EQ(got_ok, want_err.ok) << text;
  ASSERT_EQ(got_err.to_string(), want_err.to_string()) << text;
  if (got_ok) {
    ASSERT_EQ(got, ref::dump(want)) << text;
  }
}

/// Decodes a cache document with both decoders and expects the same
/// verdict, error and cache; on failure the target must be untouched.
/// `classes` counts the failures by the start of their message.
void expect_same_cache_decode(const std::string& text,
                              const TuningRecord& sentinel,
                              std::map<std::string, int>* classes,
                              int* accepted) {
  ref_cache::Decoded want;
  std::string want_error;
  const bool want_ok = ref_cache::cache_from_json(text, &want, &want_error);
  KnowledgeCacheOptions other;
  other.top_k = 5;
  other.golden_advice = false;
  KnowledgeCache got(other);
  got.insert(sentinel);
  const std::string before = cache_to_json(got);
  std::string got_error;
  const bool got_ok = cache_from_json(text, &got, &got_error);
  ASSERT_EQ(got_ok, want_ok) << text << "\nref: " << want_error
                             << "\nnew: " << got_error;
  if (!want_ok) {
    ASSERT_EQ(got_error, want_error) << text;
    ASSERT_EQ(cache_to_json(got), before) << "target changed by: " << text;
    ASSERT_EQ(got.stats().inserts, 1u) << "counters changed by: " << text;
    ++(*classes)[want_error.substr(0, want_error.find_first_of(":0123456789"))];
    return;
  }
  ++*accepted;
  ASSERT_EQ(cache_to_json(got), ref_cache::cache_bytes(want)) << text;
  ASSERT_EQ(got.stats().inserts, 0u);
}

/// Cache documents of one to six fuzz records under random options.
std::vector<std::string> fuzz_cache_docs(const std::vector<TuningRecord>& records,
                                         Rng& rng, int n) {
  std::vector<std::string> docs;
  for (int i = 0; i < n; ++i) {
    KnowledgeCacheOptions opts;
    opts.top_k = 1 + static_cast<int>(rng.next_below(3));
    opts.min_score = rng.next_double();
    opts.time_penalty = 1.0 + rng.next_double();
    opts.rerank_k = 1 + static_cast<int>(rng.next_below(5));
    opts.golden_advice = rng.next_bool();
    KnowledgeCache cache(opts);
    const int m = 1 + static_cast<int>(rng.next_below(6));
    for (int j = 0; j < m; ++j) {
      cache.insert(records[rng.next_below(static_cast<std::uint32_t>(records.size()))]);
    }
    docs.push_back(cache_to_json(cache));
  }
  return docs;
}

/// The first servable fuzz record: the contents a failed decode must keep.
TuningRecord servable(const std::vector<TuningRecord>& records) {
  for (const TuningRecord& rec : records) {
    if (rec.time_ms > 0 && rec.fail.empty()) return rec;
  }
  return records.front();
}

// ================================================================= tests

TEST(RecordCodec, EncoderMatchesDomBuild) {
  Rng rng(2026);
  std::vector<TuningRecord> records = fuzz_records(rng);
  ASSERT_GT(records.size(), 200u);
  int with_optional = 0;
  for (const TuningRecord& rec : records) {
    const std::string line = record_to_json(rec);
    ASSERT_EQ(line, ref::record_to_json(rec));
    // Decoding agrees with the reference, which is not always `rec`: a
    // subnormal `hwv` entry underflows (ERANGE) and reads back as 0.
    TuningRecord back;
    TuningRecord want;
    std::string error;
    ASSERT_TRUE(record_from_json(line, &back, &error)) << error;
    ASSERT_TRUE(ref::record_from_json(line, &want, &error)) << error;
    EXPECT_TRUE(back == want) << line;
    with_optional += !rec.fail.empty() && !rec.hw_sim.empty();
  }
  EXPECT_GT(with_optional, 5);  // the optional fields really were covered
}

TEST(RecordCodec, DecoderMatchesDomWalkUnderMutation) {
  Rng rng(14);
  std::vector<TuningRecord> records = fuzz_records(rng);
  std::vector<std::string> lines;
  for (const TuningRecord& rec : records) lines.push_back(record_to_json(rec));

  TuningRecord reused;
  std::set<std::string> errors;
  int accepted = 0;
  const int kMutants = 20000;
  for (int i = 0; i < kMutants; ++i) {
    std::string line = lines[rng.next_below(static_cast<std::uint32_t>(lines.size()))];
    const int steps = 1 + static_cast<int>(rng.next_below(3));
    for (int s = 0; s < steps; ++s) {
      line = rng.next_bool(0.6) ? mutate_structure(line, rng)
                                : mutate_bytes(std::move(line), rng);
    }
    expect_same_decode(line, &reused, &errors, &accepted);
    expect_same_parse(line);
    if (HasFatalFailure()) return;
  }
  // Both verdicts, and most of the reader's error classes, were exercised.
  EXPECT_GT(accepted, kMutants / 20);
  EXPECT_LT(accepted, kMutants / 2);
  EXPECT_GE(errors.size(), 25u);
}

TEST(RecordCodec, TruncationAtEveryOffset) {
  Rng rng(3);
  std::vector<TuningRecord> records = fuzz_records(rng);
  TuningRecord reused;
  std::set<std::string> errors;
  int accepted = 0;
  for (std::size_t r = 0; r < records.size(); r += 37) {
    const std::string line = record_to_json(records[r]);
    for (std::size_t n = 0; n <= line.size(); ++n) {
      expect_same_decode(line.substr(0, n), &reused, &errors, &accepted);
      expect_same_parse(line.substr(0, n));
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(accepted, 0);  // the full lines
}

TEST(RecordCodec, DepthCapOnUnknownMembers) {
  Rng rng(5);
  const std::string line = record_to_json(fuzz_records(rng).front());
  TuningRecord reused;
  std::set<std::string> errors;
  int accepted = 0;
  // The member's value sits at depth 1; a scalar under 63 more containers is
  // at depth 64 (accepted), under 64 more it is at 65 (rejected).
  for (int levels = 60; levels <= 66; ++levels) {
    for (bool objects : {false, true}) {
      for (bool front : {false, true}) {
        std::string mutant = line;
        const std::string member = nested_member(levels, objects);
        if (front) {
          mutant.insert(1, member + ",");
        } else {
          mutant.insert(mutant.size() - 1, "," + member);
        }
        expect_same_decode(mutant, &reused, &errors, &accepted);
        expect_same_parse(mutant);
        if (HasFatalFailure()) return;
        TuningRecord rec;
        std::string error;
        EXPECT_EQ(record_from_json(mutant, &rec, &error), levels <= 63)
            << levels << " " << error;
      }
    }
  }
  EXPECT_TRUE(errors.count(" nesting too deep"));
}

TEST(RecordCodec, ReaderContract) {
  Rng rng(9);
  TuningRecord base = fuzz_records(rng).front();
  base.fail.clear();
  const std::string line = record_to_json(base);
  TuningRecord rec;
  std::string error;

  // Integer fields truncate fractional and exponent tokens toward zero, and
  // fall back to the field default when a token does not fit.
  auto with = [&](const std::string& key, const std::string& token) {
    json::ParseError err;
    ref::Value doc = ref::parse(line, &err);
    for (auto& member : doc.members()) {
      if (member.first == key) member.second = ref::Value::number_raw(token);
    }
    return ref::dump(doc);
  };
  ASSERT_TRUE(record_from_json(with("trial", "1.5"), &rec, &error)) << error;
  EXPECT_EQ(rec.trial_index, 1);
  ASSERT_TRUE(record_from_json(with("trial", "-2.7"), &rec, &error));
  EXPECT_EQ(rec.trial_index, -2);
  ASSERT_TRUE(record_from_json(with("trial", "2e3"), &rec, &error));
  EXPECT_EQ(rec.trial_index, 2000);
  ASSERT_TRUE(record_from_json(with("trial", "99999999999999999999"), &rec, &error));
  EXPECT_EQ(rec.trial_index, 0);
  ASSERT_TRUE(record_from_json(with("task_index", "1e30"), &rec, &error));
  EXPECT_EQ(rec.task_index, -1);
  ASSERT_TRUE(record_from_json(with("hw", "-5"), &rec, &error));
  EXPECT_EQ(rec.hardware_fp, 0u);
  ASSERT_TRUE(record_from_json(with("ms", "1e400"), &rec, &error));
  EXPECT_EQ(rec.time_ms, 0.0);
  ASSERT_TRUE(record_from_json(with("ms", "4.9e-324"), &rec, &error));
  EXPECT_EQ(rec.time_ms, 0.0);  // underflow is ERANGE too

  // A duplicated member counts by its last occurrence, type included.
  std::string dup = line;
  dup.insert(dup.size() - 1, ",\"trial\":77");
  ASSERT_TRUE(record_from_json(dup, &rec, &error)) << error;
  EXPECT_EQ(rec.trial_index, 77);
  dup.insert(dup.size() - 1, ",\"trial\":\"77\"");
  EXPECT_FALSE(record_from_json(dup, &rec, &error));
  EXPECT_EQ(error, "field \"trial\" is not a number");

  // A syntax error anywhere beats a field error earlier in the line.
  std::string both = line;
  both.insert(both.size() - 1, ",\"v\":\"one\"");
  EXPECT_FALSE(record_from_json(both, &rec, &error));
  EXPECT_EQ(error, "field \"v\" is not a number");
  both.insert(both.size() - 1, ",\"zz\":[1,]");
  EXPECT_FALSE(record_from_json(both, &rec, &error));
  EXPECT_EQ(error.find("line 1, column "), 0u) << error;
  EXPECT_NE(error.find("invalid number"), std::string::npos) << error;
}

TEST(RecordCodec, FormatDoubleMatchesPrintfLoop) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 6.795162141492879,
      DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN,
      DBL_EPSILON, 1e15, 1e16, 1e17, 123456789012345678.0, 9007199254740993.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  Rng rng(599901);
  for (int i = 0; i < 200000; ++i) {  // random finite bit patterns
    double d = from_bits(next_u64(rng));
    if (std::isfinite(d)) values.push_back(d);
  }
  for (int i = 0; i < 100000; ++i) {  // subnormals
    values.push_back(from_bits(next_u64(rng) & 0x800fffffffffffffULL));
  }
  for (int i = 0; i < 100000; ++i) {  // latency-like values
    values.push_back(rng.next_double() * std::pow(10.0, rng.next_int(-6, 6)));
  }
  for (int i = 0; i < 100000; ++i) {  // integers, small and near 2^53
    const double big = static_cast<double>(next_u64(rng) >> 11);
    values.push_back(rng.next_bool() ? static_cast<double>(rng.next_int(-100000, 100000))
                                     : big);
  }
  for (int i = 0; i < 20000; ++i) values.push_back(rng.next_normal());
  ASSERT_GE(values.size(), 500000u);
  for (double d : values) {
    ASSERT_EQ(json::format_double(d), ref::format_double(d)) << std::hexfloat << d;
  }
}

TEST(RecordCodec, EscapeMatchesReference) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  EXPECT_EQ(json::escape(all), ref::escape(all));
  for (const char* name : kNames) EXPECT_EQ(json::escape(name), ref::escape(name));
  EXPECT_EQ(json::escape(""), "\"\"");
}

TEST(CacheCodec, DecoderMatchesDomUnderMutation) {
  Rng rng(20);
  const std::vector<TuningRecord> records = fuzz_records(rng);
  const std::vector<std::string> docs = fuzz_cache_docs(records, rng, 64);
  const TuningRecord sentinel = servable(records);
  std::map<std::string, int> classes;
  int accepted = 0;
  const int kMutants = 4000;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = docs[rng.next_below(static_cast<std::uint32_t>(docs.size()))];
    const int steps = 1 + static_cast<int>(rng.next_below(3));
    for (int s = 0; s < steps; ++s) {
      text = rng.next_bool(0.7) ? mutate_structure(text, rng)
                                : mutate_bytes(std::move(text), rng);
    }
    expect_same_cache_decode(text, sentinel, &classes, &accepted);
    if (HasFatalFailure()) return;
  }
  // Shapes the mutations rarely reach: other top-level kinds, and the
  // duplicated members whose last occurrence decides.
  const std::string doc = docs.front();
  const std::string body = doc.substr(1, doc.size() - 3);  // no braces, no \n
  std::vector<std::string> shapes = {
      "[]", "42", "\"kcache\"", "null", "true", "{}", " {\"harl_kcache\":1} \n",
      "{\"harl_kcache\":1,\"entries\":null}",
      "{\"harl_kcache\":\"1\",\"entries\":[]}",
      "{" + body + ",\"harl_kcache\":2}",
      "{" + body + ",\"harl_kcache\":1,\"topk\":\"3\",\"golden\":1}",
      "{" + body + ",\"entries\":[]}",
      "{\"entries\":7," + body + "}",
      "{" + body + ",\"entries\":[{\"records\":[]},{\"records\":{}}]}",
      "{" + body + ",\"entries\":[{\"records\":[1]},{\"records\":[]}]}",
      "{" + body + ",\"entries\":[3,{\"records\":[1]}]}",
      "{" + body + ",\"entries\":[{\"records\":[1],\"records\":[]}]}",
      "{" + body + ",\"entries\":[{\"records\":[],\"records\":[1]}]}",
      "{" + body + ",\"entries\":[{\"records\":[1]}],\"harl_kcache\":9}",
      "{" + body + ",\"entries\":[{\"records\":[1]}],\"zz\":[1,]}"};
  for (const std::string& d : docs) shapes.push_back(d);
  for (const std::string& shape : shapes) {
    expect_same_cache_decode(shape, sentinel, &classes, &accepted);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(accepted, kMutants / 10);
  // Every verdict of the decoder was reached.
  for (const char* cls :
       {"cache parse error", "cache document is not an object",
        "not a knowledge-cache file (missing harl_kcache)",
        "incompatible cache version ", "cache field \"entries\" is not an array",
        "cache entry is not an object",
        "cache entry without a \"records\" array", "embedded record invalid"}) {
    EXPECT_GT(classes[cls], 0) << cls;
  }
}

TEST(CacheCodec, TruncationAtEveryOffset) {
  Rng rng(21);
  const std::vector<TuningRecord> records = fuzz_records(rng);
  const TuningRecord sentinel = servable(records);
  std::map<std::string, int> classes;
  int accepted = 0;
  for (const std::string& doc : fuzz_cache_docs(records, rng, 3)) {
    for (std::size_t n = 0; n <= doc.size(); ++n) {
      expect_same_cache_decode(doc.substr(0, n), sentinel, &classes, &accepted);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GE(accepted, 3);  // at least the whole documents
}

// ============================================================== protocol

/// Requests of every type with each field present or absent at random.
std::vector<std::string> fuzz_request_lines(Rng& rng, int n) {
  static const RequestType kTypes[] = {
      RequestType::kHello,  RequestType::kQuery, RequestType::kTune,
      RequestType::kStatus, RequestType::kSubscribe, RequestType::kStats,
      RequestType::kShutdown};
  std::vector<std::string> lines;
  for (int i = 0; i < n; ++i) {
    Request req;
    req.type = kTypes[i % 7];
    if (rng.next_bool()) req.tenant = kNames[rng.next_below(6)];
    if (rng.next_bool()) req.budget = rng.next_int(0, 5000);
    if (rng.next_bool()) req.network = rng.next_bool() ? "bert" : "bert_b1";
    if (rng.next_bool()) req.task = kNames[rng.next_below(6)];
    if (rng.next_bool()) req.hw = rng.next_bool() ? "xeon" : "test";
    if (rng.next_bool()) req.trials = rng.next_int(1, 5000);
    if (rng.next_bool()) req.batch = rng.next_int(2, 16);
    if (rng.next_bool()) req.seed = next_u64(rng);
    if (rng.next_bool()) req.policy = rng.next_bool() ? "HARL" : "Ansor";
    if (rng.next_bool()) req.job = rng.next_int(0, 99);
    if (rng.next_bool()) req.weight = 0.25 + rng.next_double() * 4;
    lines.push_back(request_to_json(req));
  }
  return lines;
}

/// Replies of every kind: query answers, job states, stream events, stats.
std::vector<std::string> fuzz_response_lines(const std::vector<TuningRecord>& records,
                                             Rng& rng, int n) {
  std::vector<std::string> lines;
  for (int i = 0; i < n; ++i) {
    Response resp;
    resp.ok = rng.next_bool(0.8);
    if (!resp.ok) resp.error = kNames[rng.next_below(6)];
    switch (i % 4) {
      case 0:  // query
        resp.tier = rng.next_bool() ? "L1" : "miss";
        resp.est_time_ms = rng.next_double() * 10;
        resp.score = rng.next_double();
        resp.schedule_fp = next_u64(rng);
        resp.record = record_to_json(records[rng.next_below(
            static_cast<std::uint32_t>(records.size()))]);
        resp.serve_us = rng.next_double() * 50;
        resp.cache_gen = next_u64(rng);
        break;
      case 1:  // tune / status
        resp.job = rng.next_int(0, 99);
        resp.state = rng.next_bool() ? "running" : "done";
        resp.trials_used = rng.next_int(0, 5000);
        resp.latency_ms = rng.next_double() * 10;
        break;
      case 2:  // stream event
        resp.event = rng.next_bool() ? "round" : "best";
        resp.job = rng.next_int(0, 99);
        resp.round = rng.next_int(0, 300);
        resp.trials_after = rng.next_int(0, 5000);
        resp.net_latency_ms = rng.next_double() * 10;
        resp.task = kNames[rng.next_below(6)];
        break;
      default:  // stats
        for (std::int64_t* c :
             {&resp.queries, &resp.l1_hits, &resp.l2_hits, &resp.l3_hits, &resp.misses,
              &resp.jobs_admitted, &resp.jobs_rejected, &resp.jobs_completed,
              &resp.jobs_resumed, &resp.tenants, &resp.refreshes, &resp.invalidations,
              &resp.reloads}) {
          *c = rng.next_int(0, 100000);
        }
        resp.role = rng.next_bool() ? "primary" : "replica";
        break;
    }
    lines.push_back(response_to_json(resp));
  }
  return lines;
}

/// A target no decode can produce by accident: every field off its default.
Request sentinel_request() {
  Request req;
  req.version = -7;
  req.type = RequestType::kShutdown;
  req.tenant = "sentinel";
  req.budget = 11;
  req.network = "net";
  req.task = "task";
  req.hw = "hw";
  req.trials = 13;
  req.batch = 17;
  req.seed = 19;
  req.policy = "policy";
  req.job = 23;
  req.weight = 29.5;
  return req;
}

Response sentinel_response() {
  Response resp;
  resp.version = -7;
  resp.ok = true;
  resp.error = "sentinel";
  resp.tier = "L9";
  resp.score = 0.5;
  resp.record = "{}";
  resp.job = 23;
  resp.queries = 31;
  resp.role = "role";
  return resp;
}

/// Rejections whose message starts with `prefix`.
int count_class(const std::map<std::string, int>& classes, const std::string& prefix) {
  int n = 0;
  for (const auto& [message, count] : classes) {
    if (message.compare(0, prefix.size(), prefix) == 0) n += count;
  }
  return n;
}

/// Decodes `line` twice into targets holding `sentinel`.  Both runs give
/// the same verdict, error and message; a rejection names a reason and
/// leaves the target untouched; an accepted message encodes to a line that
/// decodes back to it, byte-stable on a second encode.  `classes` counts
/// rejections by their message up to its first digit.
template <class Msg>
struct ProtocolCodec {
  bool (*decode)(const std::string&, Msg*, std::string*);
  std::string (*encode)(const Msg&);
};

template <class Msg>
void expect_protocol_decode(const std::string& line, const Msg& sentinel,
                            ProtocolCodec<Msg> codec, ProtocolCodec<Msg> dom,
                            std::map<std::string, int>* classes, int* accepted) {
  auto decode = codec.decode;
  auto encode = codec.encode;
  Msg first = sentinel;
  Msg second = sentinel;
  std::string first_error;
  std::string second_error;
  const bool ok = decode(line, &first, &first_error);
  ASSERT_EQ(decode(line, &second, &second_error), ok) << line;
  ASSERT_EQ(second_error, first_error) << line;
  ASSERT_TRUE(second == first) << line;
  // The DOM codec the one-pass decoder replaced agrees on every input.
  Msg want = sentinel;
  std::string want_error;
  ASSERT_EQ(dom.decode(line, &want, &want_error), ok)
      << line << "\nref: " << want_error << "\nnew: " << first_error;
  ASSERT_EQ(first_error, want_error) << line;
  ASSERT_TRUE(first == want) << line;
  if (!ok) {
    ASSERT_FALSE(first_error.empty()) << line;
    ASSERT_TRUE(first == sentinel) << "target changed by: " << line;
    ++(*classes)[first_error.substr(0, first_error.find_first_of("0123456789"))];
    return;
  }
  ++*accepted;
  const std::string wire = encode(first);
  ASSERT_EQ(wire, dom.encode(first)) << line;
  Msg back = sentinel;
  std::string error;
  ASSERT_TRUE(decode(wire, &back, &error)) << line << "\nencoded: " << wire << "\n" << error;
  ASSERT_TRUE(back == first) << line << "\nencoded: " << wire;
  ASSERT_EQ(encode(back), wire) << line;
}

void expect_request_decode(const std::string& line, std::map<std::string, int>* classes,
                           int* accepted) {
  expect_protocol_decode<Request>(line, sentinel_request(),
                                  {request_from_json, request_to_json},
                                  {ref::request_from_json, ref::request_to_json},
                                  classes, accepted);
}

void expect_response_decode(const std::string& line, std::map<std::string, int>* classes,
                            int* accepted) {
  expect_protocol_decode<Response>(line, sentinel_response(),
                                   {response_from_json, response_to_json},
                                   {ref::response_from_json, ref::response_to_json},
                                   classes, accepted);
}

TEST(ProtocolCodec, RequestDecoderUnderMutation) {
  Rng rng(24);
  const std::vector<std::string> lines = fuzz_request_lines(rng, 70);
  std::map<std::string, int> classes;
  int accepted = 0;
  const int kMutants = 20000;
  for (int i = 0; i < kMutants; ++i) {
    std::string line = lines[rng.next_below(static_cast<std::uint32_t>(lines.size()))];
    const int steps = 1 + static_cast<int>(rng.next_below(3));
    for (int s = 0; s < steps; ++s) {
      line = rng.next_bool(0.6) ? mutate_structure(line, rng)
                                : mutate_bytes(std::move(line), rng);
    }
    expect_request_decode(line, &classes, &accepted);
    if (HasFatalFailure()) return;
  }
  // Shapes the mutations rarely reach: other top-level kinds, and versions
  // that only fit an int after truncation.
  std::vector<std::string> shapes = {
      "[]", "42", "\"query\"", "null", "true", "{}",
      "{\"v\":4294967297,\"type\":\"query\"}", "{\"v\":-4294967295,\"type\":\"query\"}",
      "{\"v\":1e30,\"type\":\"stats\"}", "{\"type\":\"stats\",\"v\":2}"};
  shapes.insert(shapes.end(), lines.begin(), lines.end());
  for (const std::string& line : shapes) expect_request_decode(line, &classes, &accepted);
  EXPECT_GT(accepted, kMutants / 10);
  // Every verdict of the decoder was reached.
  for (const char* cls :
       {"line ", "message is not a JSON object", "missing ", "unknown request type ",
        "incompatible version ", "\"type\" is not a string", "\"v\" is not a number",
        "\"tenant\" is not a string", "\"seed\" is not a number",
        "\"weight\" is not a number"}) {
    EXPECT_GT(count_class(classes, cls), 0) << cls;
  }
}

TEST(ProtocolCodec, ResponseDecoderUnderMutation) {
  Rng rng(25);
  const std::vector<std::string> lines =
      fuzz_response_lines(fuzz_records(rng), rng, 80);
  std::map<std::string, int> classes;
  int accepted = 0;
  const int kMutants = 20000;
  for (int i = 0; i < kMutants; ++i) {
    std::string line = lines[rng.next_below(static_cast<std::uint32_t>(lines.size()))];
    const int steps = 1 + static_cast<int>(rng.next_below(3));
    for (int s = 0; s < steps; ++s) {
      line = rng.next_bool(0.6) ? mutate_structure(line, rng)
                                : mutate_bytes(std::move(line), rng);
    }
    expect_response_decode(line, &classes, &accepted);
    if (HasFatalFailure()) return;
  }
  std::vector<std::string> shapes = {"[]", "42", "\"ok\"", "null", "false",
                                     "{\"ok\":true,\"v\":4294967297}"};
  shapes.insert(shapes.end(), lines.begin(), lines.end());
  for (const std::string& line : shapes) expect_response_decode(line, &classes, &accepted);
  EXPECT_GT(accepted, kMutants / 10);
  for (const char* cls : {"line ", "message is not a JSON object", "incompatible version ",
                          "\"ok\" is not a bool", "\"record\" is not a string",
                          "\"cache_gen\" is not a number"}) {
    EXPECT_GT(count_class(classes, cls), 0) << cls;
  }
}

TEST(ProtocolCodec, TruncationAtEveryOffset) {
  Rng rng(26);
  std::map<std::string, int> classes;
  int accepted = 0;
  for (const std::string& line : fuzz_request_lines(rng, 14)) {
    for (std::size_t n = 0; n <= line.size(); ++n) {
      expect_request_decode(line.substr(0, n), &classes, &accepted);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(accepted, 14);  // only the whole lines
  accepted = 0;
  for (const std::string& line : fuzz_response_lines(fuzz_records(rng), rng, 8)) {
    for (std::size_t n = 0; n <= line.size(); ++n) {
      expect_response_decode(line.substr(0, n), &classes, &accepted);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(accepted, 8);
}

TEST(ProtocolCodec, DepthCapOnUnknownMembers) {
  Rng rng(27);
  const std::string request = fuzz_request_lines(rng, 3)[2];
  const std::string response = fuzz_response_lines(fuzz_records(rng), rng, 1)[0];
  std::map<std::string, int> classes;
  int accepted = 0;
  // As in records: a scalar under 63 more containers is at depth 64
  // (accepted), under 64 more it is at 65 (rejected).
  for (int levels = 60; levels <= 66; ++levels) {
    for (bool objects : {false, true}) {
      const std::string member = nested_member(levels, objects);
      std::string req = request;
      req.insert(1, member + ",");
      std::string resp = response;
      resp.insert(resp.size() - 1, "," + member);
      expect_request_decode(req, &classes, &accepted);
      expect_response_decode(resp, &classes, &accepted);
      if (HasFatalFailure()) return;
      Request out;
      Response rout;
      std::string error;
      EXPECT_EQ(request_from_json(req, &out, &error), levels <= 63) << levels << " " << error;
      EXPECT_EQ(response_from_json(resp, &rout, &error), levels <= 63) << levels << " " << error;
    }
  }
  EXPECT_GT(count_class(classes, "line "), 0);
}

// =============================================================== journal

/// Journal lines of every event kind, as the daemon writes them, with ids,
/// trials and seeds across their whole ranges (replay, not the codec,
/// rejects the ones it cannot apply).
std::vector<std::string> fuzz_journal_lines(Rng& rng, int n) {
  std::vector<std::string> lines;
  for (int i = 0; i < n; ++i) {
    JournalEntry e;
    e.event = i % 3 == 0 ? JournalEvent::kTenant
                         : i % 3 == 1 ? JournalEvent::kJob : JournalEvent::kDone;
    e.tenant = kNames[rng.next_below(6)];
    if (rng.next_bool()) e.budget = rng.next_int(0, 5000);
    if (rng.next_bool()) e.weight = 0.25 + rng.next_double() * 4;
    e.job = rng.next_bool(0.8) ? rng.next_int(1, 99)
                               : static_cast<std::int64_t>(next_u64(rng) >> 1);
    e.network = rng.next_bool() ? "bert" : kNames[rng.next_below(6)];
    e.batch = rng.next_int(1, 1024);
    e.hw = rng.next_bool() ? "test" : "xeon";
    e.trials = rng.next_bool(0.8) ? rng.next_int(1, 5000)
                                  : static_cast<std::int64_t>(next_u64(rng) >> 1);
    e.seed = next_u64(rng);
    if (rng.next_bool()) e.policy = rng.next_bool() ? "HARL" : "Ansor";
    lines.push_back(journal_to_json(e));
  }
  return lines;
}

JournalEntry sentinel_journal() {
  JournalEntry e;
  e.version = -7;
  e.event = JournalEvent::kDone;
  e.tenant = "sentinel";
  e.budget = 3;
  e.weight = 5.5;
  e.job = 23;
  e.network = "net";
  e.batch = 7;
  e.hw = "hw";
  e.trials = 11;
  e.seed = 13;
  e.policy = "policy";
  return e;
}

void expect_journal_decode(const std::string& line, std::map<std::string, int>* classes,
                           int* accepted) {
  expect_protocol_decode<JournalEntry>(line, sentinel_journal(),
                                       {journal_from_json, journal_to_json},
                                       {ref::journal_from_json, ref::journal_to_json},
                                       classes, accepted);
}

TEST(JournalCodec, WriterBytesDecodeToTheirEntries) {
  // The three line shapes a daemon writes (Server.JournalBytesAreUnchanged
  // pins them end to end) decode to the entries that encode them.
  JournalEntry tenant;
  tenant.event = JournalEvent::kTenant;
  tenant.tenant = "al\"ice";
  tenant.budget = 5000;
  tenant.weight = 2.5;
  JournalEntry job;
  job.job = 1;
  job.tenant = "al\"ice";
  job.network = "bert";
  job.batch = 2;
  job.hw = "test";
  job.trials = 40;
  job.seed = 18446744073709551615ULL;
  job.policy = "Ansor";
  JournalEntry done;
  done.event = JournalEvent::kDone;
  done.job = 1;
  const std::pair<JournalEntry, std::string> kLines[] = {
      {tenant, R"({"v":1,"ev":"tenant","tenant":"al\"ice","budget":5000,"weight":2.5})"},
      {job, R"({"v":1,"ev":"job","job":1,"tenant":"al\"ice","network":"bert","batch":2,)"
            R"("hw":"test","trials":40,"seed":18446744073709551615,"policy":"Ansor"})"},
      {done, R"({"v":1,"ev":"done","job":1})"}};
  for (const auto& [entry, line] : kLines) {
    EXPECT_EQ(journal_to_json(entry), line);
    JournalEntry back = sentinel_journal();
    std::string error;
    ASSERT_TRUE(journal_from_json(line, &back, &error)) << line << "\n" << error;
    EXPECT_TRUE(back == entry) << line;
  }
}

TEST(JournalCodec, DecoderMatchesDomUnderMutation) {
  Rng rng(28);
  const std::vector<std::string> lines = fuzz_journal_lines(rng, 60);
  std::map<std::string, int> classes;
  int accepted = 0;
  const int kMutants = 20000;
  for (int i = 0; i < kMutants; ++i) {
    std::string line = lines[rng.next_below(static_cast<std::uint32_t>(lines.size()))];
    const int steps = 1 + static_cast<int>(rng.next_below(3));
    for (int s = 0; s < steps; ++s) {
      line = rng.next_bool(0.6) ? mutate_structure(line, rng)
                                : mutate_bytes(std::move(line), rng);
    }
    expect_journal_decode(line, &classes, &accepted);
    if (HasFatalFailure()) return;
  }
  // Shapes the mutations rarely reach: other top-level kinds, versions that
  // only fit an int after truncation, unknown events, members of another
  // event's kind, and ids and trials at the ends of their range.
  std::vector<std::string> shapes = {
      "[]", "42", "\"job\"", "null", "true", "{}", "{\"v\":1}",
      "{\"v\":4294967297,\"ev\":\"done\",\"job\":1}",
      "{\"v\":1e30,\"ev\":\"done\",\"job\":1}", "{\"ev\":\"done\",\"job\":1,\"v\":2}",
      "{\"v\":1,\"ev\":\"hello\",\"tenant\":\"t\"}", "{\"v\":1,\"ev\":\"Job\",\"job\":1}",
      "{\"v\":1,\"ev\":\"done\"}", "{\"v\":1,\"ev\":\"job\",\"tenant\":\"t\"}",
      "{\"v\":1,\"ev\":\"done\",\"job\":1,\"tenant\":7,\"trials\":\"x\"}",
      "{\"v\":1,\"ev\":\"tenant\",\"tenant\":\"t\",\"job\":\"x\",\"budget\":-5,\"weight\":-1}",
      "{\"v\":1,\"ev\":\"tenant\",\"tenant\":\"t\",\"weight\":1e999}",
      "{\"v\":1,\"ev\":\"job\",\"job\":9223372036854775807,\"trials\":9223372036854775807}",
      "{\"v\":1,\"ev\":\"job\",\"job\":9223372036854775808,\"seed\":-1}",
      "{\"v\":1,\"ev\":\"job\",\"job\":-9223372036854775808,\"batch\":1.5e3}"};
  shapes.insert(shapes.end(), lines.begin(), lines.end());
  for (const std::string& line : shapes) expect_journal_decode(line, &classes, &accepted);
  EXPECT_GT(accepted, kMutants / 10);
  // Every verdict of the decoder was reached.
  for (const char* cls :
       {"line ", "message is not a JSON object", "missing \"ev\"", "missing \"job\"",
        "unknown journal event ", "incompatible version ", "\"ev\" is not a string",
        "\"v\" is not a number", "\"job\" is not a number", "\"tenant\" is not a string",
        "\"budget\" is not a number", "\"seed\" is not a number",
        "\"policy\" is not a string"}) {
    EXPECT_GT(count_class(classes, cls), 0) << cls;
  }
}

TEST(JournalCodec, TruncationAtEveryOffset) {
  // A torn tail is the journal's crash window: no prefix of a line but the
  // whole line is accepted.
  Rng rng(29);
  std::map<std::string, int> classes;
  int accepted = 0;
  for (const std::string& line : fuzz_journal_lines(rng, 12)) {
    for (std::size_t n = 0; n <= line.size(); ++n) {
      expect_journal_decode(line.substr(0, n), &classes, &accepted);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(accepted, 12);
}

// ============================================================ model files

/// Fitted models of a few shapes and both split modes, as their files' JSON
/// (without the trailing newline, as the mutations dump it).
std::vector<std::string> fuzz_model_docs(Rng& rng) {
  std::vector<std::string> docs;
  for (int i = 0; i < 6; ++i) {
    const int d = 2 + i % 3;
    std::vector<double> x, y;
    for (int r = 0; r < 40; ++r) {
      double t = 0;
      for (int j = 0; j < d; ++j) {
        const double v = rng.next_range(-2, 2);
        x.push_back(v);
        t += (j + 1) * v * v;
      }
      y.push_back(t);
    }
    GbdtConfig cfg;
    cfg.num_trees = 2 + i % 3;
    cfg.max_depth = 2 + i % 2;
    cfg.seed = next_u64(rng);
    cfg.split_mode = i % 2 ? SplitMode::kHistogram : SplitMode::kExact;
    cfg.histogram_bins = 8;
    Gbdt model(cfg);
    model.fit(x, d, y);
    std::string text = gbdt_to_json(model);
    text.pop_back();
    docs.push_back(std::move(text));
  }
  return docs;
}

/// A model no decode can produce by accident.
Gbdt sentinel_model() {
  GbdtConfig cfg;
  cfg.num_trees = 1;
  cfg.seed = 99;
  Gbdt model(cfg);
  model.fit({0.0, 1.0, 2.0, 3.0}, 1, {0.0, 1.0, 4.0, 9.0});
  return model;
}

/// Decodes a model file with the one-pass decoder and the DOM one: the same
/// verdict, error and restored forest.  A rejection leaves the target
/// untouched; an accepted model re-encodes (through either encoder) to
/// bytes that decode back to themselves.
void expect_same_model_decode(const std::string& text, const Gbdt& sentinel,
                              std::map<std::string, int>* classes, int* accepted) {
  Gbdt got = sentinel;
  Gbdt want = sentinel;
  std::string got_error;
  std::string want_error;
  const bool ok = gbdt_from_json(text, &got, &got_error);
  ASSERT_EQ(ok, ref::gbdt_from_json(text, &want, &want_error))
      << text << "\nref: " << want_error << "\nnew: " << got_error;
  ASSERT_EQ(got_error, want_error) << text;
  const std::string bytes = gbdt_to_json(got);
  ASSERT_EQ(bytes, ref::gbdt_to_json(want)) << text;
  if (!ok) {
    ASSERT_EQ(bytes, gbdt_to_json(sentinel)) << "target changed by: " << text;
    ++(*classes)[got_error.substr(0, got_error.find_first_of(":0123456789"))];
    return;
  }
  ++*accepted;
  Gbdt back = sentinel;
  std::string error;
  ASSERT_TRUE(gbdt_from_json(bytes, &back, &error)) << text << "\n" << error;
  ASSERT_EQ(gbdt_to_json(back), bytes) << text;
}

TEST(ModelCodec, SavedModelsReencodeToTheirOwnBytes) {
  Rng rng(30);
  for (const std::string& doc : fuzz_model_docs(rng)) {
    Gbdt model;
    std::string error;
    ASSERT_TRUE(gbdt_from_json(doc + "\n", &model, &error)) << error;
    EXPECT_EQ(gbdt_to_json(model), doc + "\n");
  }
}

TEST(ModelCodec, DecoderMatchesDomUnderMutation) {
  Rng rng(31);
  const std::vector<std::string> docs = fuzz_model_docs(rng);
  const Gbdt sentinel = sentinel_model();
  std::map<std::string, int> classes;
  int accepted = 0;
  const int kMutants = 6000;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = docs[rng.next_below(static_cast<std::uint32_t>(docs.size()))];
    const int steps = 1 + static_cast<int>(rng.next_below(3));
    for (int s = 0; s < steps; ++s) {
      text = rng.next_bool(0.6) ? mutate_structure(text, rng)
                                : mutate_bytes(std::move(text), rng);
    }
    expect_same_model_decode(text, sentinel, &classes, &accepted);
    if (HasFatalFailure()) return;
  }
  // Shapes the mutations rarely reach: other top-level kinds, a newer
  // version, and duplicated members whose last occurrence decides.
  const std::string doc = docs.front();
  const std::string body = doc.substr(1, doc.size() - 2);
  const std::vector<std::string> shapes = {
      "[]", "42", "\"model\"", "null", "{}", "{\"harl_gbdt\":1}",
      "{" + body + ",\"harl_gbdt\":2}", "{" + body + ",\"cfg\":{}}",
      "{" + body + ",\"cfg\":[]}", "{\"cfg\":7," + body + "}",
      "{" + body + ",\"feat\":[1,\"x\"]}", "{" + body + ",\"rng\":[1,2,3]}",
      "{" + body + ",\"rng\":[1,\"2\"]}", "{" + body + ",\"root\":[]}",
      "{" + body + ",\"zz\":[1,]}"};
  for (const std::string& shape : shapes) {
    expect_same_model_decode(shape, sentinel, &classes, &accepted);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(accepted, kMutants / 20);
  for (const char* cls :
       {"line ", "model document is not a JSON object", "missing or non-numeric field ",
        "incompatible model version ", "missing or non-object field \"cfg\"",
        "missing or non-array field ", "non-numeric entry in ",
        "missing or malformed field \"rng\" (expected [state, inc])",
        "forest arrays have mismatched lengths", "root count ",
        "root index out of range", "node feature index out of range",
        "child index out of range or non-monotone (cycle)"}) {
    EXPECT_GT(count_class(classes, cls), 0) << cls;
  }
}

TEST(ModelCodec, TruncationAtEveryOffset) {
  Rng rng(32);
  const Gbdt sentinel = sentinel_model();
  std::map<std::string, int> classes;
  int accepted = 0;
  const std::vector<std::string> docs = fuzz_model_docs(rng);
  for (std::size_t d = 0; d < docs.size(); d += 2) {
    for (std::size_t n = 0; n <= docs[d].size(); ++n) {
      expect_same_model_decode(docs[d].substr(0, n), sentinel, &classes, &accepted);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(accepted, 3);  // only the whole documents
}

// ============================================================== manifest

/// Manifest lines (without their newline) of one to four logs with random
/// coverage words.
std::vector<std::string> fuzz_manifest_lines(Rng& rng, int n) {
  std::vector<std::string> lines;
  for (int i = 0; i < n; ++i) {
    std::map<std::string, LogCoverage> logs;
    const int m = 1 + static_cast<int>(rng.next_below(4));
    for (int j = 0; j < m; ++j) {
      LogCoverage c;
      for (std::uint64_t* w : {&c.offset, &c.lines, &c.dev, &c.ino, &c.tail, &c.fp}) {
        *w = rng.next_bool() ? rng.next_below(5000) : next_u64(rng);
      }
      logs[std::string(kNames[rng.next_below(6)]) + ".jsonl"] = c;
    }
    std::string line = manifest_line(logs);
    line.pop_back();
    lines.push_back(std::move(line));
  }
  return lines;
}

/// Decodes a manifest with the one-pass decoder and the DOM one: the same
/// verdict and, when accepted, the same map, which re-encodes to a line that
/// decodes back to it.  A rejection leaves the target untouched.
void expect_same_manifest_decode(const std::string& line, int* accepted, int* rejected) {
  std::map<std::string, LogCoverage> got;
  std::map<std::string, LogCoverage> want;
  const bool ok = parse_manifest(line, &got);
  ASSERT_EQ(ok, ref::parse_manifest(line, &want)) << line;
  if (!ok) {
    ASSERT_TRUE(got.empty()) << "target changed by: " << line;
    ++*rejected;
    return;
  }
  ++*accepted;
  ASSERT_TRUE(got == want) << line;
  const std::string again = manifest_line(got);
  std::map<std::string, LogCoverage> back;
  ASSERT_TRUE(parse_manifest(again.substr(0, again.size() - 1), &back)) << again;
  ASSERT_TRUE(back == got) << again;
}

TEST(ManifestCodec, DecoderMatchesDomUnderMutation) {
  Rng rng(33);
  const std::vector<std::string> lines = fuzz_manifest_lines(rng, 40);
  int accepted = 0;
  int rejected = 0;
  const int kMutants = 6000;
  for (int i = 0; i < kMutants; ++i) {
    std::string line = lines[rng.next_below(static_cast<std::uint32_t>(lines.size()))];
    const int steps = 1 + static_cast<int>(rng.next_below(3));
    for (int s = 0; s < steps; ++s) {
      line = rng.next_bool(0.6) ? mutate_structure(line, rng)
                                : mutate_bytes(std::move(line), rng);
    }
    expect_same_manifest_decode(line, &accepted, &rejected);
    if (HasFatalFailure()) return;
  }
  const std::string line = lines.front();
  const std::string body = line.substr(1, line.size() - 2);
  const std::vector<std::string> shapes = {
      "[]", "{}", "{\"harl_snapshot\":1,\"logs\":[]}",
      "{\"harl_snapshot\":1,\"logs\":[3]}", "{\"harl_snapshot\":\"1\",\"logs\":[]}",
      "{" + body + ",\"harl_snapshot\":2}", "{" + body + ",\"logs\":{}}",
      "{" + body + ",\"logs\":[]}", "{\"logs\":7," + body + "}",
      "{" + body + ",\"zz\":[1,]}"};
  for (const std::string& shape : shapes) {
    expect_same_manifest_decode(shape, &accepted, &rejected);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(accepted, kMutants / 10);
  EXPECT_GT(rejected, kMutants / 10);
}

TEST(ManifestCodec, TruncationAtEveryOffset) {
  Rng rng(34);
  int accepted = 0;
  int rejected = 0;
  for (const std::string& line : fuzz_manifest_lines(rng, 6)) {
    for (std::size_t n = 0; n <= line.size(); ++n) {
      expect_same_manifest_decode(line.substr(0, n), &accepted, &rejected);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(accepted, 6);  // only the whole lines
}

}  // namespace
}  // namespace harl
