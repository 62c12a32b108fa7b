#include "server/protocol.hpp"

#include <algorithm>
#include <limits>

#include "io/json.hpp"

namespace harl {

namespace {

/// Shared guards for both message kinds: one JSON object per line, version
/// checked before any field is trusted.
bool parse_envelope(const std::string& line, json::Value* doc, int* version,
                    std::string* error) {
  json::ParseError perr;
  *doc = json::parse(line, &perr);
  if (!perr.ok) {
    if (error != nullptr) *error = perr.to_string();
    return false;
  }
  if (!doc->is_object()) {
    if (error != nullptr) *error = "message is not a JSON object";
    return false;
  }
  *version = kProtocolVersion;
  if (const json::Value* v = doc->find("v")) {
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

bool get_string(const json::Value& doc, const char* key, std::string* out,
                std::string* error) {
  const json::Value* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_string()) {
    if (error != nullptr) *error = std::string("\"") + key + "\" is not a string";
    return false;
  }
  *out = v->as_string();
  return true;
}

bool get_int(const json::Value& doc, const char* key, std::int64_t* out,
             std::string* error) {
  const json::Value* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_number()) {
    if (error != nullptr) *error = std::string("\"") + key + "\" is not a number";
    return false;
  }
  *out = v->as_int64(*out);
  return true;
}

bool get_uint(const json::Value& doc, const char* key, std::uint64_t* out,
              std::string* error) {
  const json::Value* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_number()) {
    if (error != nullptr) *error = std::string("\"") + key + "\" is not a number";
    return false;
  }
  *out = v->as_uint64(*out);
  return true;
}

bool get_double(const json::Value& doc, const char* key, double* out,
                std::string* error) {
  const json::Value* v = doc.find(key);
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
bool get_optional_int(const json::Value& doc, const char* key, std::int64_t* out,
                      std::string* error) {
  if (!get_int(doc, key, out, error)) return false;
  if (*out < 0) *out = -1;
  return true;
}

bool get_optional_double(const json::Value& doc, const char* key, double* out,
                         std::string* error) {
  if (!get_double(doc, key, out, error)) return false;
  if (*out < 0) *out = -1;
  return true;
}

bool get_bool(const json::Value& doc, const char* key, bool* out,
              std::string* error) {
  const json::Value* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_bool()) {
    if (error != nullptr) *error = std::string("\"") + key + "\" is not a bool";
    return false;
  }
  *out = v->as_bool();
  return true;
}

}  // namespace

const char* request_type_name(RequestType type) {
  switch (type) {
    case RequestType::kHello: return "hello";
    case RequestType::kQuery: return "query";
    case RequestType::kTune: return "tune";
    case RequestType::kStatus: return "status";
    case RequestType::kSubscribe: return "subscribe";
    case RequestType::kStats: return "stats";
    case RequestType::kShutdown: return "shutdown";
  }
  return "?";
}

std::optional<RequestType> request_type_from_name(const std::string& name) {
  static constexpr RequestType kAll[] = {
      RequestType::kHello,     RequestType::kQuery, RequestType::kTune,
      RequestType::kStatus,    RequestType::kSubscribe,
      RequestType::kStats,     RequestType::kShutdown,
  };
  for (RequestType t : kAll) {
    if (name == request_type_name(t)) return t;
  }
  return std::nullopt;
}

bool Request::operator==(const Request& o) const {
  return version == o.version && type == o.type && tenant == o.tenant &&
         budget == o.budget && network == o.network && task == o.task &&
         hw == o.hw && trials == o.trials && batch == o.batch &&
         seed == o.seed && policy == o.policy && job == o.job &&
         weight == o.weight;
}

bool Response::operator==(const Response& o) const {
  return version == o.version && ok == o.ok && error == o.error &&
         event == o.event && tier == o.tier && est_time_ms == o.est_time_ms &&
         score == o.score && schedule_fp == o.schedule_fp &&
         record == o.record && serve_us == o.serve_us && job == o.job &&
         state == o.state && trials_used == o.trials_used &&
         latency_ms == o.latency_ms && round == o.round &&
         trials_after == o.trials_after &&
         net_latency_ms == o.net_latency_ms && task == o.task &&
         queries == o.queries && l1_hits == o.l1_hits &&
         l2_hits == o.l2_hits && l3_hits == o.l3_hits && misses == o.misses &&
         jobs_admitted == o.jobs_admitted &&
         jobs_rejected == o.jobs_rejected &&
         jobs_completed == o.jobs_completed &&
         jobs_resumed == o.jobs_resumed && tenants == o.tenants &&
         cache_gen == o.cache_gen && role == o.role &&
         refreshes == o.refreshes && invalidations == o.invalidations &&
         reloads == o.reloads;
}

std::string request_to_json(const Request& req) {
  json::Value obj = json::Value::object();
  obj.set("v", json::Value::number(static_cast<std::int64_t>(req.version)));
  obj.set("type", json::Value::string(request_type_name(req.type)));
  if (!req.tenant.empty()) obj.set("tenant", json::Value::string(req.tenant));
  if (req.budget >= 0) obj.set("budget", json::Value::number(req.budget));
  if (!req.network.empty()) obj.set("network", json::Value::string(req.network));
  if (!req.task.empty()) obj.set("task", json::Value::string(req.task));
  if (!req.hw.empty()) obj.set("hw", json::Value::string(req.hw));
  if (req.trials != 0) obj.set("trials", json::Value::number(req.trials));
  if (req.batch != 1) obj.set("batch", json::Value::number(req.batch));
  if (req.seed != 42) obj.set("seed", json::Value::number(req.seed));
  if (!req.policy.empty()) obj.set("policy", json::Value::string(req.policy));
  if (req.job >= 0) obj.set("job", json::Value::number(req.job));
  if (req.weight > 0) obj.set("weight", json::Value::number(req.weight));
  return obj.dump();
}

std::string response_to_json(const Response& resp) {
  json::Value obj = json::Value::object();
  obj.set("v", json::Value::number(static_cast<std::int64_t>(resp.version)));
  obj.set("ok", json::Value::boolean(resp.ok));
  if (!resp.error.empty()) obj.set("error", json::Value::string(resp.error));
  if (!resp.event.empty()) obj.set("event", json::Value::string(resp.event));
  if (!resp.tier.empty()) obj.set("tier", json::Value::string(resp.tier));
  if (resp.est_time_ms >= 0) {
    obj.set("est_time_ms", json::Value::number(resp.est_time_ms));
  }
  if (resp.score >= 0) obj.set("score", json::Value::number(resp.score));
  if (resp.schedule_fp != 0) {
    obj.set("schedule_fp", json::Value::number(resp.schedule_fp));
  }
  if (!resp.record.empty()) {
    // The record rides as a string of its exact record_to_json bytes, so the
    // L1 bit-identity contract survives the extra protocol hop.
    obj.set("record", json::Value::string(resp.record));
  }
  if (resp.serve_us >= 0) obj.set("serve_us", json::Value::number(resp.serve_us));
  if (resp.cache_gen != 0) {
    obj.set("cache_gen", json::Value::number(resp.cache_gen));
  }
  if (resp.job >= 0) obj.set("job", json::Value::number(resp.job));
  if (!resp.state.empty()) obj.set("state", json::Value::string(resp.state));
  if (resp.trials_used >= 0) {
    obj.set("trials_used", json::Value::number(resp.trials_used));
  }
  if (resp.latency_ms >= 0) {
    obj.set("latency_ms", json::Value::number(resp.latency_ms));
  }
  if (resp.round >= 0) obj.set("round", json::Value::number(resp.round));
  if (resp.trials_after >= 0) {
    obj.set("trials_after", json::Value::number(resp.trials_after));
  }
  if (resp.net_latency_ms >= 0) {
    obj.set("net_latency_ms", json::Value::number(resp.net_latency_ms));
  }
  if (!resp.task.empty()) obj.set("task", json::Value::string(resp.task));
  if (resp.queries >= 0) obj.set("queries", json::Value::number(resp.queries));
  if (resp.l1_hits >= 0) obj.set("l1_hits", json::Value::number(resp.l1_hits));
  if (resp.l2_hits >= 0) obj.set("l2_hits", json::Value::number(resp.l2_hits));
  if (resp.l3_hits >= 0) obj.set("l3_hits", json::Value::number(resp.l3_hits));
  if (resp.misses >= 0) obj.set("misses", json::Value::number(resp.misses));
  if (resp.jobs_admitted >= 0) {
    obj.set("jobs_admitted", json::Value::number(resp.jobs_admitted));
  }
  if (resp.jobs_rejected >= 0) {
    obj.set("jobs_rejected", json::Value::number(resp.jobs_rejected));
  }
  if (resp.jobs_completed >= 0) {
    obj.set("jobs_completed", json::Value::number(resp.jobs_completed));
  }
  if (resp.jobs_resumed >= 0) {
    obj.set("jobs_resumed", json::Value::number(resp.jobs_resumed));
  }
  if (resp.tenants >= 0) obj.set("tenants", json::Value::number(resp.tenants));
  if (!resp.role.empty()) obj.set("role", json::Value::string(resp.role));
  if (resp.refreshes >= 0) {
    obj.set("refreshes", json::Value::number(resp.refreshes));
  }
  if (resp.invalidations >= 0) {
    obj.set("invalidations", json::Value::number(resp.invalidations));
  }
  if (resp.reloads >= 0) obj.set("reloads", json::Value::number(resp.reloads));
  return obj.dump();
}

bool request_from_json(const std::string& line, Request* out,
                       std::string* error) {
  json::Value doc;
  int version = kProtocolVersion;
  if (!parse_envelope(line, &doc, &version, error)) return false;

  Request req;
  req.version = version;
  const json::Value* type = doc.find("type");
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

bool response_from_json(const std::string& line, Response* out,
                        std::string* error) {
  json::Value doc;
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

}  // namespace harl
