#include "support/dom_decoders.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "cost/gbdt_io.hpp"
#include "support/json_dom.hpp"

namespace harl {
namespace ref {

namespace {

/// Shared guards for both message kinds: one JSON object per line, version
/// checked before any field is trusted.
bool parse_envelope(const std::string& line, Value* doc, int* version,
                    std::string* error) {
  json::ParseError perr;
  *doc = ref::parse(line, &perr);
  if (!perr.ok) {
    if (error != nullptr) *error = perr.to_string();
    return false;
  }
  if (!doc->is_object()) {
    if (error != nullptr) *error = "message is not a JSON object";
    return false;
  }
  *version = kProtocolVersion;
  if (const Value* v = doc->find("v")) {
    if (!v->is_number()) {
      if (error != nullptr) *error = "\"v\" is not a number";
      return false;
    }
    // Compared before narrowing, so 2^32 + 1 is not read as version 1.
    const std::int64_t v64 = v->as_int64(kProtocolVersion);
    if (v64 > kProtocolVersion) {
      if (error != nullptr) {
        *error = "incompatible version " + std::to_string(v64) +
                 " (reader supports <= " + std::to_string(kProtocolVersion) + ")";
      }
      return false;
    }
    *version = static_cast<int>(std::max<std::int64_t>(v64, std::numeric_limits<int>::min()));
  }
  return true;
}

bool get_string(const Value& doc, const char* key, std::string* out,
                std::string* error) {
  const Value* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_string()) {
    if (error != nullptr) *error = std::string("\"") + key + "\" is not a string";
    return false;
  }
  *out = v->as_string();
  return true;
}

bool get_int(const Value& doc, const char* key, std::int64_t* out,
             std::string* error) {
  const Value* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_number()) {
    if (error != nullptr) *error = std::string("\"") + key + "\" is not a number";
    return false;
  }
  *out = v->as_int64(*out);
  return true;
}

bool get_uint(const Value& doc, const char* key, std::uint64_t* out,
              std::string* error) {
  const Value* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_number()) {
    if (error != nullptr) *error = std::string("\"") + key + "\" is not a number";
    return false;
  }
  *out = v->as_uint64(*out);
  return true;
}

bool get_double(const Value& doc, const char* key, double* out,
                std::string* error) {
  const Value* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_number()) {
    if (error != nullptr) *error = std::string("\"") + key + "\" is not a number";
    return false;
  }
  *out = v->as_double(*out);
  return true;
}

/// A field the encoder writes only when it is >= 0 ("-1 = absent"): a
/// negative value reads as -1, what the encoder would have sent, so every
/// accepted message encodes back to itself.
bool get_optional_int(const Value& doc, const char* key, std::int64_t* out,
                      std::string* error) {
  if (!get_int(doc, key, out, error)) return false;
  if (*out < 0) *out = -1;
  return true;
}

bool get_optional_double(const Value& doc, const char* key, double* out,
                         std::string* error) {
  if (!get_double(doc, key, out, error)) return false;
  if (*out < 0) *out = -1;
  return true;
}

bool get_bool(const Value& doc, const char* key, bool* out,
              std::string* error) {
  const Value* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_bool()) {
    if (error != nullptr) *error = std::string("\"") + key + "\" is not a bool";
    return false;
  }
  *out = v->as_bool();
  return true;
}

}  // namespace

std::string request_to_json(const Request& req) {
  Value obj = Value::object();
  obj.set("v", Value::number(static_cast<std::int64_t>(req.version)));
  obj.set("type", Value::string(request_type_name(req.type)));
  if (!req.tenant.empty()) obj.set("tenant", Value::string(req.tenant));
  if (req.budget >= 0) obj.set("budget", Value::number(req.budget));
  if (!req.network.empty()) obj.set("network", Value::string(req.network));
  if (!req.task.empty()) obj.set("task", Value::string(req.task));
  if (!req.hw.empty()) obj.set("hw", Value::string(req.hw));
  if (req.trials != 0) obj.set("trials", Value::number(req.trials));
  if (req.batch != 1) obj.set("batch", Value::number(req.batch));
  if (req.seed != 42) obj.set("seed", Value::number(req.seed));
  if (!req.policy.empty()) obj.set("policy", Value::string(req.policy));
  if (req.job >= 0) obj.set("job", Value::number(req.job));
  if (req.weight > 0) obj.set("weight", Value::number(req.weight));
  return obj.dump();
}

std::string response_to_json(const Response& resp) {
  Value obj = Value::object();
  obj.set("v", Value::number(static_cast<std::int64_t>(resp.version)));
  obj.set("ok", Value::boolean(resp.ok));
  if (!resp.error.empty()) obj.set("error", Value::string(resp.error));
  if (!resp.event.empty()) obj.set("event", Value::string(resp.event));
  if (!resp.tier.empty()) obj.set("tier", Value::string(resp.tier));
  if (resp.est_time_ms >= 0) {
    obj.set("est_time_ms", Value::number(resp.est_time_ms));
  }
  if (resp.score >= 0) obj.set("score", Value::number(resp.score));
  if (resp.schedule_fp != 0) {
    obj.set("schedule_fp", Value::number(resp.schedule_fp));
  }
  if (!resp.record.empty()) {
    // The record rides as a string of its exact record_to_json bytes, so the
    // L1 bit-identity contract survives the extra protocol hop.
    obj.set("record", Value::string(resp.record));
  }
  if (resp.serve_us >= 0) obj.set("serve_us", Value::number(resp.serve_us));
  if (resp.cache_gen != 0) {
    obj.set("cache_gen", Value::number(resp.cache_gen));
  }
  if (resp.job >= 0) obj.set("job", Value::number(resp.job));
  if (!resp.state.empty()) obj.set("state", Value::string(resp.state));
  if (resp.trials_used >= 0) {
    obj.set("trials_used", Value::number(resp.trials_used));
  }
  if (resp.latency_ms >= 0) {
    obj.set("latency_ms", Value::number(resp.latency_ms));
  }
  if (resp.round >= 0) obj.set("round", Value::number(resp.round));
  if (resp.trials_after >= 0) {
    obj.set("trials_after", Value::number(resp.trials_after));
  }
  if (resp.net_latency_ms >= 0) {
    obj.set("net_latency_ms", Value::number(resp.net_latency_ms));
  }
  if (!resp.task.empty()) obj.set("task", Value::string(resp.task));
  if (resp.queries >= 0) obj.set("queries", Value::number(resp.queries));
  if (resp.l1_hits >= 0) obj.set("l1_hits", Value::number(resp.l1_hits));
  if (resp.l2_hits >= 0) obj.set("l2_hits", Value::number(resp.l2_hits));
  if (resp.l3_hits >= 0) obj.set("l3_hits", Value::number(resp.l3_hits));
  if (resp.misses >= 0) obj.set("misses", Value::number(resp.misses));
  if (resp.jobs_admitted >= 0) {
    obj.set("jobs_admitted", Value::number(resp.jobs_admitted));
  }
  if (resp.jobs_rejected >= 0) {
    obj.set("jobs_rejected", Value::number(resp.jobs_rejected));
  }
  if (resp.jobs_completed >= 0) {
    obj.set("jobs_completed", Value::number(resp.jobs_completed));
  }
  if (resp.jobs_resumed >= 0) {
    obj.set("jobs_resumed", Value::number(resp.jobs_resumed));
  }
  if (resp.tenants >= 0) obj.set("tenants", Value::number(resp.tenants));
  if (!resp.role.empty()) obj.set("role", Value::string(resp.role));
  if (resp.refreshes >= 0) {
    obj.set("refreshes", Value::number(resp.refreshes));
  }
  if (resp.invalidations >= 0) {
    obj.set("invalidations", Value::number(resp.invalidations));
  }
  if (resp.reloads >= 0) obj.set("reloads", Value::number(resp.reloads));
  return obj.dump();
}

bool request_from_json(const std::string& line, Request* out,
                       std::string* error) {
  Value doc;
  int version = kProtocolVersion;
  if (!parse_envelope(line, &doc, &version, error)) return false;

  Request req;
  req.version = version;
  const Value* type = doc.find("type");
  if (type == nullptr) {
    if (error != nullptr) *error = "missing \"type\"";
    return false;
  }
  if (!type->is_string()) {
    if (error != nullptr) *error = "\"type\" is not a string";
    return false;
  }
  std::optional<RequestType> kind = request_type_from_name(type->as_string());
  if (!kind.has_value()) {
    if (error != nullptr) {
      *error = "unknown request type \"" + type->as_string() + "\"";
    }
    return false;
  }
  req.type = *kind;
  if (!get_string(doc, "tenant", &req.tenant, error)) return false;
  if (!get_optional_int(doc, "budget", &req.budget, error)) return false;
  if (!get_string(doc, "network", &req.network, error)) return false;
  if (!get_string(doc, "task", &req.task, error)) return false;
  if (!get_string(doc, "hw", &req.hw, error)) return false;
  if (!get_int(doc, "trials", &req.trials, error)) return false;
  if (!get_int(doc, "batch", &req.batch, error)) return false;
  if (!get_uint(doc, "seed", &req.seed, error)) return false;
  if (!get_string(doc, "policy", &req.policy, error)) return false;
  if (!get_optional_int(doc, "job", &req.job, error)) return false;
  if (!get_double(doc, "weight", &req.weight, error)) return false;
  if (!(req.weight > 0)) req.weight = 0;  // "0 = keep", the only other value sent
  *out = std::move(req);
  return true;
}

std::string journal_to_json(const JournalEntry& entry) {
  Value obj = Value::object();
  obj.set("v", Value::number(static_cast<std::int64_t>(entry.version)));
  switch (entry.event) {
    case JournalEvent::kTenant:
      obj.set("ev", Value::string("tenant"));
      obj.set("tenant", Value::string(entry.tenant));
      if (entry.budget >= 0) obj.set("budget", Value::number(entry.budget));
      if (entry.weight > 0) obj.set("weight", Value::number(entry.weight));
      break;
    case JournalEvent::kJob:
      obj.set("ev", Value::string("job"));
      obj.set("job", Value::number(entry.job));
      obj.set("tenant", Value::string(entry.tenant));
      obj.set("network", Value::string(entry.network));
      obj.set("batch", Value::number(entry.batch));
      obj.set("hw", Value::string(entry.hw));
      obj.set("trials", Value::number(entry.trials));
      obj.set("seed", Value::number(entry.seed));
      if (!entry.policy.empty()) obj.set("policy", Value::string(entry.policy));
      break;
    case JournalEvent::kDone:
      obj.set("ev", Value::string("done"));
      obj.set("job", Value::number(entry.job));
      break;
  }
  return obj.dump();
}

bool journal_from_json(const std::string& line, JournalEntry* out,
                       std::string* error) {
  Value doc;
  int version = kProtocolVersion;
  if (!parse_envelope(line, &doc, &version, error)) return false;

  JournalEntry entry;
  entry.version = version;
  const Value* ev = doc.find("ev");
  if (ev == nullptr) {
    if (error != nullptr) *error = "missing \"ev\"";
    return false;
  }
  if (!ev->is_string()) {
    if (error != nullptr) *error = "\"ev\" is not a string";
    return false;
  }
  const std::string& name = ev->as_string();
  if (name == "tenant") {
    entry.event = JournalEvent::kTenant;
    if (!get_string(doc, "tenant", &entry.tenant, error)) return false;
    if (!get_optional_int(doc, "budget", &entry.budget, error)) return false;
    if (!get_double(doc, "weight", &entry.weight, error)) return false;
    if (!(entry.weight > 0)) entry.weight = 0;
  } else if (name == "job" || name == "done") {
    entry.event = name == "job" ? JournalEvent::kJob : JournalEvent::kDone;
    if (doc.find("job") == nullptr) {
      if (error != nullptr) *error = "missing \"job\"";
      return false;
    }
    if (!get_int(doc, "job", &entry.job, error)) return false;
    if (entry.event == JournalEvent::kJob) {
      if (!get_string(doc, "tenant", &entry.tenant, error)) return false;
      if (!get_string(doc, "network", &entry.network, error)) return false;
      if (!get_int(doc, "batch", &entry.batch, error)) return false;
      if (!get_string(doc, "hw", &entry.hw, error)) return false;
      if (!get_int(doc, "trials", &entry.trials, error)) return false;
      if (!get_uint(doc, "seed", &entry.seed, error)) return false;
      if (!get_string(doc, "policy", &entry.policy, error)) return false;
    }
  } else {
    if (error != nullptr) *error = "unknown journal event \"" + name + "\"";
    return false;
  }
  *out = std::move(entry);
  return true;
}

bool response_from_json(const std::string& line, Response* out,
                        std::string* error) {
  Value doc;
  int version = kProtocolVersion;
  if (!parse_envelope(line, &doc, &version, error)) return false;

  Response resp;
  resp.version = version;
  if (!get_bool(doc, "ok", &resp.ok, error)) return false;
  if (!get_string(doc, "error", &resp.error, error)) return false;
  if (!get_string(doc, "event", &resp.event, error)) return false;
  if (!get_string(doc, "tier", &resp.tier, error)) return false;
  if (!get_optional_double(doc, "est_time_ms", &resp.est_time_ms, error)) return false;
  if (!get_optional_double(doc, "score", &resp.score, error)) return false;
  if (!get_uint(doc, "schedule_fp", &resp.schedule_fp, error)) return false;
  if (!get_string(doc, "record", &resp.record, error)) return false;
  if (!get_optional_double(doc, "serve_us", &resp.serve_us, error)) return false;
  if (!get_uint(doc, "cache_gen", &resp.cache_gen, error)) return false;
  if (!get_optional_int(doc, "job", &resp.job, error)) return false;
  if (!get_string(doc, "state", &resp.state, error)) return false;
  if (!get_optional_int(doc, "trials_used", &resp.trials_used, error)) return false;
  if (!get_optional_double(doc, "latency_ms", &resp.latency_ms, error)) return false;
  if (!get_optional_int(doc, "round", &resp.round, error)) return false;
  if (!get_optional_int(doc, "trials_after", &resp.trials_after, error)) return false;
  if (!get_optional_double(doc, "net_latency_ms", &resp.net_latency_ms, error)) {
    return false;
  }
  if (!get_string(doc, "task", &resp.task, error)) return false;
  if (!get_optional_int(doc, "queries", &resp.queries, error)) return false;
  if (!get_optional_int(doc, "l1_hits", &resp.l1_hits, error)) return false;
  if (!get_optional_int(doc, "l2_hits", &resp.l2_hits, error)) return false;
  if (!get_optional_int(doc, "l3_hits", &resp.l3_hits, error)) return false;
  if (!get_optional_int(doc, "misses", &resp.misses, error)) return false;
  if (!get_optional_int(doc, "jobs_admitted", &resp.jobs_admitted, error)) return false;
  if (!get_optional_int(doc, "jobs_rejected", &resp.jobs_rejected, error)) return false;
  if (!get_optional_int(doc, "jobs_completed", &resp.jobs_completed, error)) {
    return false;
  }
  if (!get_optional_int(doc, "jobs_resumed", &resp.jobs_resumed, error)) return false;
  if (!get_optional_int(doc, "tenants", &resp.tenants, error)) return false;
  if (!get_string(doc, "role", &resp.role, error)) return false;
  if (!get_optional_int(doc, "refreshes", &resp.refreshes, error)) return false;
  if (!get_optional_int(doc, "invalidations", &resp.invalidations, error)) return false;
  if (!get_optional_int(doc, "reloads", &resp.reloads, error)) return false;
  *out = std::move(resp);
  return true;
}

namespace {

Value int_array(const std::vector<int>& v) {
  Value out = Value::array();
  for (int x : v) out.push_back(Value::number(static_cast<std::int64_t>(x)));
  return out;
}

Value double_array(const std::vector<double>& v) {
  Value out = Value::array();
  for (double x : v) out.push_back(Value::number(x));
  return out;
}

bool read_int_array(const Value& obj, const char* key, std::vector<int>* out,
                    std::string* error) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is_array()) {
    *error = std::string("missing or non-array field \"") + key + "\"";
    return false;
  }
  out->clear();
  out->reserve(v->items().size());
  for (const Value& item : v->items()) {
    if (!item.is_number()) {
      *error = std::string("non-numeric entry in \"") + key + "\"";
      return false;
    }
    out->push_back(static_cast<int>(item.as_int64()));
  }
  return true;
}

bool read_double_array(const Value& obj, const char* key, std::vector<double>* out,
                       std::string* error) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is_array()) {
    *error = std::string("missing or non-array field \"") + key + "\"";
    return false;
  }
  out->clear();
  out->reserve(v->items().size());
  for (const Value& item : v->items()) {
    if (!item.is_number()) {
      *error = std::string("non-numeric entry in \"") + key + "\"";
      return false;
    }
    out->push_back(item.as_double());
  }
  return true;
}

bool read_number(const Value& obj, const char* key, const Value** out,
                 std::string* error) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    *error = std::string("missing or non-numeric field \"") + key + "\"";
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

std::string gbdt_to_json(const Gbdt& model) {
  const GbdtConfig& cfg = model.config();
  Value obj = Value::object();
  obj.set("harl_gbdt", Value::number(static_cast<std::int64_t>(kGbdtModelVersion)));
  Value c = Value::object();
  c.set("trees", Value::number(static_cast<std::int64_t>(cfg.num_trees)));
  c.set("depth", Value::number(static_cast<std::int64_t>(cfg.max_depth)));
  c.set("lr", Value::number(cfg.learning_rate));
  c.set("min_leaf", Value::number(static_cast<std::int64_t>(cfg.min_samples_leaf)));
  c.set("row_sub", Value::number(cfg.row_subsample));
  c.set("col_sub", Value::number(cfg.col_subsample));
  c.set("l2", Value::number(cfg.l2_lambda));
  c.set("seed", Value::number(cfg.seed));
  c.set("split", Value::number(static_cast<std::int64_t>(
                     cfg.split_mode == SplitMode::kHistogram ? 1 : 0)));
  c.set("bins", Value::number(static_cast<std::int64_t>(cfg.histogram_bins)));
  obj.set("cfg", std::move(c));
  obj.set("nf", Value::number(static_cast<std::int64_t>(model.num_features())));
  obj.set("fit", Value::number(static_cast<std::int64_t>(model.num_trees_fit())));
  obj.set("base", Value::number(model.base_score()));
  obj.set("feat", int_array(model.flat_feature()));
  obj.set("thresh", double_array(model.flat_thresh()));
  obj.set("child", int_array(model.flat_child()));
  obj.set("root", int_array(model.flat_root()));
  Value rng = Value::array();
  rng.push_back(Value::number(model.rng().serial_state()));
  rng.push_back(Value::number(model.rng().serial_inc()));
  obj.set("rng", std::move(rng));
  return obj.dump() + "\n";
}

bool gbdt_from_json(const std::string& text, Gbdt* out, std::string* error) {
  json::ParseError perr;
  Value obj = ref::parse(text, &perr);
  if (!perr.ok) {
    *error = perr.to_string();
    return false;
  }
  if (!obj.is_object()) {
    *error = "model document is not a JSON object";
    return false;
  }

  const Value* v = nullptr;
  if (!read_number(obj, "harl_gbdt", &v, error)) return false;
  int version = static_cast<int>(v->as_int64());
  if (version > kGbdtModelVersion) {
    *error = "incompatible model version " + std::to_string(version) +
             " (reader supports <= " + std::to_string(kGbdtModelVersion) + ")";
    return false;
  }

  const Value* cv = obj.find("cfg");
  if (cv == nullptr || !cv->is_object()) {
    *error = "missing or non-object field \"cfg\"";
    return false;
  }
  GbdtConfig cfg;
  if (!read_number(*cv, "trees", &v, error)) return false;
  cfg.num_trees = static_cast<int>(v->as_int64());
  if (!read_number(*cv, "depth", &v, error)) return false;
  cfg.max_depth = static_cast<int>(v->as_int64());
  if (!read_number(*cv, "lr", &v, error)) return false;
  cfg.learning_rate = v->as_double();
  if (!read_number(*cv, "min_leaf", &v, error)) return false;
  cfg.min_samples_leaf = static_cast<int>(v->as_int64());
  if (!read_number(*cv, "row_sub", &v, error)) return false;
  cfg.row_subsample = v->as_double();
  if (!read_number(*cv, "col_sub", &v, error)) return false;
  cfg.col_subsample = v->as_double();
  if (!read_number(*cv, "l2", &v, error)) return false;
  cfg.l2_lambda = v->as_double();
  if (!read_number(*cv, "seed", &v, error)) return false;
  cfg.seed = v->as_uint64();
  if (!read_number(*cv, "split", &v, error)) return false;
  cfg.split_mode = v->as_int64() == 1 ? SplitMode::kHistogram : SplitMode::kExact;
  if (!read_number(*cv, "bins", &v, error)) return false;
  cfg.histogram_bins = static_cast<int>(v->as_int64());

  if (!read_number(obj, "nf", &v, error)) return false;
  int nf = static_cast<int>(v->as_int64());
  if (!read_number(obj, "fit", &v, error)) return false;
  int fit = static_cast<int>(v->as_int64());
  if (!read_number(obj, "base", &v, error)) return false;
  double base = v->as_double();

  std::vector<int> feat, child, root;
  std::vector<double> thresh;
  if (!read_int_array(obj, "feat", &feat, error)) return false;
  if (!read_double_array(obj, "thresh", &thresh, error)) return false;
  if (!read_int_array(obj, "child", &child, error)) return false;
  if (!read_int_array(obj, "root", &root, error)) return false;

  const Value* rv = obj.find("rng");
  if (rv == nullptr || !rv->is_array() || rv->items().size() != 2 ||
      !rv->items()[0].is_number() || !rv->items()[1].is_number()) {
    *error = "missing or malformed field \"rng\" (expected [state, inc])";
    return false;
  }
  std::uint64_t rng_state = rv->items()[0].as_uint64();
  std::uint64_t rng_inc = rv->items()[1].as_uint64();

  // Structural validation: the predict loop chases child indices without
  // bounds checks, so a corrupt file must be rejected here.
  int nodes = static_cast<int>(feat.size());
  if (thresh.size() != feat.size() || child.size() != feat.size()) {
    *error = "forest arrays have mismatched lengths";
    return false;
  }
  if (nf < 0 || fit < 0 || static_cast<int>(root.size()) != fit) {
    *error = "root count " + std::to_string(root.size()) +
             " does not match fitted tree count " + std::to_string(fit);
    return false;
  }
  for (int r : root) {
    if (r < 0 || r >= nodes) {
      *error = "root index out of range";
      return false;
    }
  }
  for (int i = 0; i < nodes; ++i) {
    if (feat[static_cast<std::size_t>(i)] >= nf) {
      *error = "node feature index out of range";
      return false;
    }
    if (feat[static_cast<std::size_t>(i)] >= 0) {
      int c = child[static_cast<std::size_t>(i)];
      // `flatten` appends children breadth-first, so every legitimate file
      // has child > parent; enforcing it makes the forest provably acyclic
      // (predict chases child links in an unbounded loop).
      // `c >= nodes - 1` where the library once wrote `c + 1 >= nodes`: the
      // same verdict without the signed overflow at c = INT_MAX.
      if (c <= i || c >= nodes - 1) {
        *error = "child index out of range or non-monotone (cycle)";
        return false;
      }
    }
  }

  out->restore(cfg, nf, fit, base, std::move(feat), std::move(thresh),
               std::move(child), std::move(root), rng_state, rng_inc);
  return true;
}

bool parse_manifest(const std::string& line,
                    std::map<std::string, LogCoverage>* out) {
  json::ParseError perr;
  const Value doc = ref::parse(line, &perr);
  const Value* version = perr.ok ? doc.find("harl_snapshot") : nullptr;
  const Value* logs = perr.ok ? doc.find("logs") : nullptr;
  if (version == nullptr || version->as_int64(0) != 1 ||
      logs == nullptr || !logs->is_array()) {
    return false;
  }
  for (const Value& log : logs->items()) {
    const Value* file = log.find("file");
    if (file == nullptr || !file->is_string()) return false;
    LogCoverage c;
    for (const auto& [key, slot] :
         {std::make_pair("offset", &c.offset), std::make_pair("lines", &c.lines),
          std::make_pair("dev", &c.dev), std::make_pair("ino", &c.ino),
          std::make_pair("tail", &c.tail), std::make_pair("fp", &c.fp)}) {
      const Value* v = log.find(key);
      if (v == nullptr || !v->is_number()) return false;
      *slot = v->as_uint64();
    }
    (*out)[file->as_string()] = c;
  }
  return true;
}

}  // namespace ref
}  // namespace harl
