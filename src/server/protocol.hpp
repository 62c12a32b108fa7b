#pragma once

/// \file protocol.hpp
/// The harl_serve wire format: versioned line-JSON requests/responses over a
/// local TCP socket, one compact JSON object per line; and, in the same
/// dialect, the lines of the daemon's job journal.  Encoders append each
/// field straight into the line; decoders read a line in one pass over the
/// `json::Cursor` into a `json::Members` table, then check it field by field.
/// Invariant: serialization is deterministic (equal messages produce equal
/// bytes, in the `src/io/json.*` dialect), parsing is tolerant of unknown
/// fields but rejects newer protocol versions, and every malformed input
/// yields an error, never a misparse — the corpus in tests/test_server.cpp
/// pins this without sockets, and tests/test_record_codec.cpp holds the
/// decoders to the DOM codecs they replaced under seeded mutation.
/// Collaborators: HarlServer, LineClient, harl_query --connect,
/// docs/PROTOCOL.md.

#include <cstdint>
#include <optional>
#include <string>

namespace harl {

/// Current wire-protocol version.  Bump on incompatible message changes;
/// both sides reject messages from *newer* versions instead of misparsing
/// them (additive fields do not need a bump: unknown fields are ignored).
inline constexpr int kProtocolVersion = 1;

/// What a client asks the daemon to do.
enum class RequestType {
  kHello,      ///< register/refresh a tenant (and optionally set its budget)
  kQuery,      ///< serve a schedule from the knowledge cache (no search)
  kTune,       ///< admit a tuning job against the tenant's trial budget
  kStatus,     ///< one job's lifecycle state and result summary
  kSubscribe,  ///< stream round/best events of a job until it finishes
  kStats,      ///< server-wide counters (cache tiers, jobs, tenants)
  kShutdown,   ///< ask the daemon to drain and exit (graceful SIGTERM twin)
};

const char* request_type_name(RequestType type);
std::optional<RequestType> request_type_from_name(const std::string& name);

/// One client request.  Fields are a union over the request types; unused
/// fields keep their defaults and stay off the wire (deterministic
/// serialization skips them).
struct Request {
  int version = kProtocolVersion;
  RequestType type = RequestType::kQuery;
  std::string tenant;        ///< requesting tenant (hello/tune; optional elsewhere)
  std::int64_t budget = -1;  ///< hello: set the tenant's trial budget (-1 = keep)
  std::string network;       ///< query: "bert_b1"-style name; tune: base name
  std::string task;          ///< query: subgraph name within the network
  std::string hw;            ///< hardware preset name (default "xeon")
  std::int64_t trials = 0;   ///< tune: measurement-trial budget for the job
  std::int64_t batch = 1;    ///< tune: network batch size
  std::uint64_t seed = 42;   ///< tune: SearchOptions::seed (run identity)
  std::string policy;        ///< tune: search policy name ("" = HARL)
  std::int64_t job = -1;     ///< status/subscribe: job id
  double weight = 0;         ///< hello: fair-queue weight (0 = keep current)

  bool operator==(const Request& o) const;
};

/// One server reply (or one streamed event line, for subscriptions).  Like
/// `Request`, a union over reply kinds: sentinel-valued fields stay off the
/// wire, so every reply is compact and deterministic.
struct Response {
  int version = kProtocolVersion;
  bool ok = false;
  std::string error;      ///< non-empty iff !ok
  std::string event;      ///< subscription stream: "round" | "best" | "done"

  // query
  std::string tier;       ///< serve_tier_name: "L1" | "L2" | "L3" | "miss"
  double est_time_ms = -1;
  double score = -1;
  std::uint64_t schedule_fp = 0;
  std::string record;     ///< winning record, verbatim record_to_json bytes
  double serve_us = -1;   ///< server-side KnowledgeCache::serve latency
  std::uint64_t cache_gen = 0;  ///< answering shard's published cache
                                ///< generation (0 = never published/loaded)

  // tune/status/subscribe
  std::int64_t job = -1;
  std::string state;      ///< fleet_job_state_name: queued/running/stopped/done
  std::int64_t trials_used = -1;
  double latency_ms = -1;
  std::int64_t round = -1;        ///< stream: round index within the job
  std::int64_t trials_after = -1; ///< stream: cumulative trials after the round
  double net_latency_ms = -1;     ///< stream: objective after the round
  std::string task;               ///< stream: subgraph tuned this round

  // stats (all -1 = absent)
  std::int64_t queries = -1;
  std::int64_t l1_hits = -1;
  std::int64_t l2_hits = -1;
  std::int64_t l3_hits = -1;
  std::int64_t misses = -1;
  std::int64_t jobs_admitted = -1;
  std::int64_t jobs_rejected = -1;
  std::int64_t jobs_completed = -1;
  std::int64_t jobs_resumed = -1;  ///< jobs re-admitted by restart recovery
  std::int64_t tenants = -1;
  std::string role;                ///< "primary" | "replica" (stats reply)
  std::int64_t refreshes = -1;     ///< cache generations published/loaded
  std::int64_t invalidations = -1; ///< cached bests retired by live tuning
  std::int64_t reloads = -1;       ///< replica hot-reloads of published files

  bool operator==(const Response& o) const;
};

/// Serialize to one compact JSON line (no trailing newline).  Field order is
/// fixed and default/sentinel fields are skipped, so equal messages produce
/// equal bytes.
std::string request_to_json(const Request& req);
std::string response_to_json(const Response& resp);

/// Parse one line.  Returns false and fills `*error` on malformed JSON, a
/// non-object document, a missing/unknown `type`, wrong field types, or
/// `version > kProtocolVersion` ("incompatible version"); `*out` is
/// untouched on failure.  Unknown fields are ignored (forward
/// compatibility).
bool request_from_json(const std::string& line, Request* out,
                       std::string* error);
bool response_from_json(const std::string& line, Response* out,
                        std::string* error);

/// What one line of the daemon's journal (`<state_dir>/jobs.jsonl`) records.
enum class JournalEvent {
  kTenant,  ///< a hello that set a tenant's budget or weight
  kJob,     ///< an admitted job, written before the admission is acked
  kDone,    ///< a job that ran to completion
};

/// One journal line.  Like `Request`, a union over the event kinds: each
/// kind writes and reads only its own members (`tenant`: tenant, budget,
/// weight; `job`: every job member; `done`: job), and the others keep their
/// defaults.  Journal lines share the wire protocol's version and dialect.
struct JournalEntry {
  int version = kProtocolVersion;
  JournalEvent event = JournalEvent::kJob;
  std::string tenant;
  std::int64_t budget = -1;  ///< tenant: -1 = keep (off the line)
  double weight = 0;         ///< tenant: 0 = keep (off the line)
  std::int64_t job = -1;
  std::string network;
  std::int64_t batch = 1;
  std::string hw;
  std::int64_t trials = 0;
  std::uint64_t seed = 42;
  std::string policy;        ///< "" = HARL (off the line)

  bool operator==(const JournalEntry& o) const;
};

/// One compact JSON line (no trailing newline), deterministic like the
/// protocol encoders; a job line writes every member but an empty policy.
std::string journal_to_json(const JournalEntry& entry);

/// Parse one journal line.  Returns false and fills `*error` on malformed
/// JSON, a non-object document, a newer version, a missing or unknown
/// `ev`, a job or done line without `job`, or a member of the event's own
/// of another kind than its writer uses; `*out` is untouched on failure.
/// Values are not range-checked: replay (`HarlServer::recover`) decides
/// which entries it can apply.
bool journal_from_json(const std::string& line, JournalEntry* out,
                       std::string* error);

}  // namespace harl
