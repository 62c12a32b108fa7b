#include "server/protocol.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "io/json.hpp"

namespace harl {

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

bool JournalEntry::operator==(const JournalEntry& o) const {
  return version == o.version && event == o.event && tenant == o.tenant &&
         budget == o.budget && weight == o.weight && job == o.job &&
         network == o.network && batch == o.batch && hw == o.hw &&
         trials == o.trials && seed == o.seed && policy == o.policy;
}

std::string request_to_json(const Request& req) {
  std::string out = "{\"v\":";
  json::append_int(&out, req.version);
  json::append_member(&out, "type", request_type_name(req.type));
  if (!req.tenant.empty()) json::append_member(&out, "tenant", req.tenant);
  if (req.budget >= 0) json::append_member(&out, "budget", req.budget);
  if (!req.network.empty()) json::append_member(&out, "network", req.network);
  if (!req.task.empty()) json::append_member(&out, "task", req.task);
  if (!req.hw.empty()) json::append_member(&out, "hw", req.hw);
  if (req.trials != 0) json::append_member(&out, "trials", req.trials);
  if (req.batch != 1) json::append_member(&out, "batch", req.batch);
  if (req.seed != 42) json::append_member(&out, "seed", req.seed);
  if (!req.policy.empty()) json::append_member(&out, "policy", req.policy);
  if (req.job >= 0) json::append_member(&out, "job", req.job);
  if (req.weight > 0) json::append_member(&out, "weight", req.weight);
  out += '}';
  return out;
}

namespace {

// Sentinel-valued reply fields stay off the wire: "" and 0 (fingerprints)
// are absent, and so is any negative count or measure (-1 = absent).
void put(std::string* out, const char* name, const std::string& s) {
  if (!s.empty()) json::append_member(out, name, s);
}
void put(std::string* out, const char* name, std::int64_t v) {
  if (v >= 0) json::append_member(out, name, v);
}
void put(std::string* out, const char* name, double v) {
  if (v >= 0) json::append_member(out, name, v);
}
void put(std::string* out, const char* name, std::uint64_t v) {
  if (v != 0) json::append_member(out, name, v);
}

}  // namespace

std::string response_to_json(const Response& resp) {
  std::string out = "{\"v\":";
  json::append_int(&out, resp.version);
  out += resp.ok ? ",\"ok\":true" : ",\"ok\":false";
  put(&out, "error", resp.error);
  put(&out, "event", resp.event);
  put(&out, "tier", resp.tier);
  put(&out, "est_time_ms", resp.est_time_ms);
  put(&out, "score", resp.score);
  put(&out, "schedule_fp", resp.schedule_fp);
  // The record rides as a string of its exact record_to_json bytes, so the
  // L1 bit-identity contract survives the extra protocol hop.
  put(&out, "record", resp.record);
  put(&out, "serve_us", resp.serve_us);
  put(&out, "cache_gen", resp.cache_gen);
  put(&out, "job", resp.job);
  put(&out, "state", resp.state);
  put(&out, "trials_used", resp.trials_used);
  put(&out, "latency_ms", resp.latency_ms);
  put(&out, "round", resp.round);
  put(&out, "trials_after", resp.trials_after);
  put(&out, "net_latency_ms", resp.net_latency_ms);
  put(&out, "task", resp.task);
  put(&out, "queries", resp.queries);
  put(&out, "l1_hits", resp.l1_hits);
  put(&out, "l2_hits", resp.l2_hits);
  put(&out, "l3_hits", resp.l3_hits);
  put(&out, "misses", resp.misses);
  put(&out, "jobs_admitted", resp.jobs_admitted);
  put(&out, "jobs_rejected", resp.jobs_rejected);
  put(&out, "jobs_completed", resp.jobs_completed);
  put(&out, "jobs_resumed", resp.jobs_resumed);
  put(&out, "tenants", resp.tenants);
  put(&out, "role", resp.role);
  put(&out, "refreshes", resp.refreshes);
  put(&out, "invalidations", resp.invalidations);
  put(&out, "reloads", resp.reloads);
  out += '}';
  return out;
}

std::string journal_to_json(const JournalEntry& entry) {
  std::string out = "{\"v\":";
  json::append_int(&out, entry.version);
  switch (entry.event) {
    case JournalEvent::kTenant:
      json::append_member(&out, "ev", "tenant");
      json::append_member(&out, "tenant", entry.tenant);
      if (entry.budget >= 0) json::append_member(&out, "budget", entry.budget);
      if (entry.weight > 0) json::append_member(&out, "weight", entry.weight);
      break;
    case JournalEvent::kJob:
      json::append_member(&out, "ev", "job");
      json::append_member(&out, "job", entry.job);
      json::append_member(&out, "tenant", entry.tenant);
      json::append_member(&out, "network", entry.network);
      json::append_member(&out, "batch", entry.batch);
      json::append_member(&out, "hw", entry.hw);
      json::append_member(&out, "trials", entry.trials);
      json::append_member(&out, "seed", entry.seed);
      if (!entry.policy.empty()) json::append_member(&out, "policy", entry.policy);
      break;
    case JournalEvent::kDone:
      json::append_member(&out, "ev", "done");
      json::append_member(&out, "job", entry.job);
      break;
  }
  out += '}';
  return out;
}

namespace {

using json::Kind;
constexpr Kind kStr = Kind::kString;
constexpr Kind kNum = Kind::kNumber;

// Message members, in the order the decoders check them, with the kind
// each must have when present.
enum RequestField {
  kReqV, kType, kTenant, kBudget, kNetwork, kReqTask, kHw, kTrials, kBatch,
  kSeed, kPolicy, kReqJob, kWeight, kNumRequestFields
};
constexpr std::string_view kRequestNames[kNumRequestFields] = {
    "v", "type", "tenant", "budget", "network", "task", "hw", "trials",
    "batch", "seed", "policy", "job", "weight"};
constexpr Kind kRequestKinds[kNumRequestFields] = {
    kNum, kStr, kStr, kNum, kStr, kStr, kStr, kNum, kNum, kNum, kStr, kNum, kNum};

enum ResponseField {
  kRespV, kOk, kError, kEvent, kTier, kEstTime, kScore, kScheduleFp, kRecord,
  kServeUs, kCacheGen, kRespJob, kState, kTrialsUsed, kLatency, kRound,
  kTrialsAfter, kNetLatency, kRespTask, kQueries, kL1, kL2, kL3, kMisses,
  kAdmitted, kRejected, kCompleted, kResumed, kTenants, kRole, kRefreshes,
  kInvalidations, kReloads, kNumResponseFields
};
constexpr std::string_view kResponseNames[kNumResponseFields] = {
    "v", "ok", "error", "event", "tier", "est_time_ms", "score",
    "schedule_fp", "record", "serve_us", "cache_gen", "job", "state",
    "trials_used", "latency_ms", "round", "trials_after", "net_latency_ms",
    "task", "queries", "l1_hits", "l2_hits", "l3_hits", "misses",
    "jobs_admitted", "jobs_rejected", "jobs_completed", "jobs_resumed",
    "tenants", "role", "refreshes", "invalidations", "reloads"};
enum JournalField {
  kJrnV, kEv, kJrnJob, kJrnTenant, kJrnBudget, kJrnWeight, kJrnNetwork,
  kJrnBatch, kJrnHw, kJrnTrials, kJrnSeed, kJrnPolicy, kNumJournalFields
};
constexpr std::string_view kJournalNames[kNumJournalFields] = {
    "v", "ev", "job", "tenant", "budget", "weight", "network", "batch", "hw",
    "trials", "seed", "policy"};
constexpr Kind kJournalKinds[kNumJournalFields] = {
    kNum, kStr, kNum, kStr, kNum, kNum, kStr, kNum, kStr, kNum, kNum, kStr};
constexpr std::pair<JournalEvent, std::string_view> kJournalEvents[] = {
    {JournalEvent::kTenant, "tenant"},
    {JournalEvent::kJob, "job"},
    {JournalEvent::kDone, "done"}};

constexpr Kind kResponseKinds[kNumResponseFields] = {
    kNum, Kind::kBool, kStr, kStr, kStr, kNum, kNum, kNum, kStr, kNum, kNum,
    kNum, kStr, kNum, kNum, kNum, kNum, kNum, kStr, kNum, kNum, kNum, kNum,
    kNum, kNum, kNum, kNum, kNum, kNum, kStr, kNum, kNum, kNum};

/// A message's member table, read from one line and checked in field order.
template <std::size_t N>
class Message {
 public:
  Message(const std::string_view (&names)[N], const Kind (&kinds)[N])
      : m_(names), kinds_(kinds) {}

  /// A member the message cannot do without: false, with `*error` set,
  /// when it is absent.
  bool required(std::size_t f, std::string* error) const {
    if (m_[f].present) return true;
    *error = "missing \"" + std::string(m_.name(f)) + "\"";
    return false;
  }

  const json::Member& operator[](std::size_t f) const { return m_[f]; }

  /// Pulls `line` into the table: false, with `*error` set, on malformed
  /// JSON or a document that is not an object.
  bool read(const std::string& line, std::string* error) {
    json::ParseError perr;
    json::Cursor c(line, &perr);
    bool is_object = false;
    if (!m_.read_document(c, &is_object)) {
      *error = perr.to_string();
      return false;
    }
    if (!is_object) *error = "message is not a JSON object";
    return is_object;
  }

  /// Checks the kinds of members [from, to); the first present member of
  /// another kind fills `*error`.
  bool kinds(std::size_t from, std::size_t to, std::string* error) const {
    for (std::size_t f = from; f < to; ++f) {
      if (!m_[f].present || m_[f].kind == kinds_[f]) continue;
      *error = "\"" + std::string(m_.name(f)) + "\" is not " +
               (kinds_[f] == kStr ? "a string" : kinds_[f] == kNum ? "a number" : "a bool");
      return false;
    }
    return true;
  }

  /// The shared guard of both message kinds: "v" (member 0), checked before
  /// any other field is trusted.
  bool version(int* out, std::string* error) const {
    if (!kinds(0, 1, error)) return false;
    // Compared before narrowing, so 2^32 + 1 is not read as version 1.
    const std::int64_t v64 = m_[0].int64(kProtocolVersion);
    if (v64 > kProtocolVersion) {
      *error = "incompatible version " + std::to_string(v64) +
               " (reader supports <= " + std::to_string(kProtocolVersion) + ")";
      return false;
    }
    *out = static_cast<int>(
        std::max<std::int64_t>(v64, std::numeric_limits<int>::min()));
    return true;
  }

  /// A field the encoder writes only when it is >= 0 ("-1 = absent"): a
  /// negative value reads as -1, what the encoder would have sent, so every
  /// accepted message encodes back to itself.
  std::int64_t count(std::size_t f) const {
    const std::int64_t v = m_[f].int64(-1);
    return v < 0 ? -1 : v;
  }
  double measure(std::size_t f) const {
    const double v = m_[f].number(-1);
    return v < 0 ? -1 : v;
  }

 private:
  json::Members<N> m_;
  const Kind* kinds_;
};

}  // namespace

bool request_from_json(const std::string& line, Request* out,
                       std::string* error) {
  std::string local;
  if (error == nullptr) error = &local;
  Message<kNumRequestFields> m(kRequestNames, kRequestKinds);
  Request req;
  if (!m.read(line, error) || !m.version(&req.version, error)) return false;
  if (!m.required(kType, error) || !m.kinds(kType, kType + 1, error)) return false;
  const std::string type = m[kType].string();
  std::optional<RequestType> kind = request_type_from_name(type);
  if (!kind.has_value()) {
    *error = "unknown request type \"" + type + "\"";
    return false;
  }
  if (!m.kinds(kTenant, kNumRequestFields, error)) return false;
  req.type = *kind;
  m[kTenant].string(&req.tenant);
  req.budget = m.count(kBudget);
  m[kNetwork].string(&req.network);
  m[kReqTask].string(&req.task);
  m[kHw].string(&req.hw);
  req.trials = m[kTrials].int64(req.trials);
  req.batch = m[kBatch].int64(req.batch);
  req.seed = m[kSeed].uint64(req.seed);
  m[kPolicy].string(&req.policy);
  req.job = m.count(kReqJob);
  req.weight = m[kWeight].number(0);
  if (!(req.weight > 0)) req.weight = 0;  // "0 = keep", the only other value sent
  *out = std::move(req);
  return true;
}

bool response_from_json(const std::string& line, Response* out,
                        std::string* error) {
  std::string local;
  if (error == nullptr) error = &local;
  Message<kNumResponseFields> m(kResponseNames, kResponseKinds);
  Response resp;
  if (!m.read(line, error) || !m.version(&resp.version, error) ||
      !m.kinds(kOk, kNumResponseFields, error)) {
    return false;
  }
  resp.ok = m[kOk].boolean();
  m[kError].string(&resp.error);
  m[kEvent].string(&resp.event);
  m[kTier].string(&resp.tier);
  resp.est_time_ms = m.measure(kEstTime);
  resp.score = m.measure(kScore);
  resp.schedule_fp = m[kScheduleFp].uint64(0);
  m[kRecord].string(&resp.record);
  resp.serve_us = m.measure(kServeUs);
  resp.cache_gen = m[kCacheGen].uint64(0);
  resp.job = m.count(kRespJob);
  m[kState].string(&resp.state);
  resp.trials_used = m.count(kTrialsUsed);
  resp.latency_ms = m.measure(kLatency);
  resp.round = m.count(kRound);
  resp.trials_after = m.count(kTrialsAfter);
  resp.net_latency_ms = m.measure(kNetLatency);
  m[kRespTask].string(&resp.task);
  resp.queries = m.count(kQueries);
  resp.l1_hits = m.count(kL1);
  resp.l2_hits = m.count(kL2);
  resp.l3_hits = m.count(kL3);
  resp.misses = m.count(kMisses);
  resp.jobs_admitted = m.count(kAdmitted);
  resp.jobs_rejected = m.count(kRejected);
  resp.jobs_completed = m.count(kCompleted);
  resp.jobs_resumed = m.count(kResumed);
  resp.tenants = m.count(kTenants);
  m[kRole].string(&resp.role);
  resp.refreshes = m.count(kRefreshes);
  resp.invalidations = m.count(kInvalidations);
  resp.reloads = m.count(kReloads);
  *out = std::move(resp);
  return true;
}

bool journal_from_json(const std::string& line, JournalEntry* out,
                       std::string* error) {
  std::string local;
  if (error == nullptr) error = &local;
  Message<kNumJournalFields> m(kJournalNames, kJournalKinds);
  JournalEntry entry;
  if (!m.read(line, error) || !m.version(&entry.version, error) ||
      !m.required(kEv, error) || !m.kinds(kEv, kEv + 1, error)) {
    return false;
  }
  const std::string ev = m[kEv].string();
  const auto* named = std::find_if(
      std::begin(kJournalEvents), std::end(kJournalEvents),
      [&ev](const auto& event) { return ev == event.second; });
  if (named == std::end(kJournalEvents)) {
    *error = "unknown journal event \"" + ev + "\"";
    return false;
  }
  entry.event = named->first;
  // Each event's own members, in the order its writer puts them.
  switch (entry.event) {
    case JournalEvent::kTenant:
      for (std::size_t f : {kJrnTenant, kJrnBudget, kJrnWeight}) {
        if (!m.kinds(f, f + 1, error)) return false;
      }
      m[kJrnTenant].string(&entry.tenant);
      entry.budget = m.count(kJrnBudget);
      entry.weight = m[kJrnWeight].number(0);
      if (!(entry.weight > 0)) entry.weight = 0;
      break;
    case JournalEvent::kJob:
      if (!m.required(kJrnJob, error)) return false;
      for (std::size_t f : {kJrnJob, kJrnTenant, kJrnNetwork, kJrnBatch, kJrnHw,
                            kJrnTrials, kJrnSeed, kJrnPolicy}) {
        if (!m.kinds(f, f + 1, error)) return false;
      }
      entry.job = m[kJrnJob].int64(entry.job);
      m[kJrnTenant].string(&entry.tenant);
      m[kJrnNetwork].string(&entry.network);
      entry.batch = m[kJrnBatch].int64(entry.batch);
      m[kJrnHw].string(&entry.hw);
      entry.trials = m[kJrnTrials].int64(entry.trials);
      entry.seed = m[kJrnSeed].uint64(entry.seed);
      m[kJrnPolicy].string(&entry.policy);
      break;
    case JournalEvent::kDone:
      if (!m.required(kJrnJob, error) || !m.kinds(kJrnJob, kJrnJob + 1, error)) {
        return false;
      }
      entry.job = m[kJrnJob].int64(entry.job);
      break;
  }
  *out = std::move(entry);
  return true;
}

}  // namespace harl
