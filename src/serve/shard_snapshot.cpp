#include "serve/shard_snapshot.hpp"

#include <unistd.h>

#include <utility>

#include "io/json.hpp"
#include "io/safe_file.hpp"
#include "util/logging.hpp"

namespace harl {

namespace {

constexpr std::int64_t kSnapshotVersion = 1;
constexpr std::string_view kManifestNames[] = {"harl_snapshot", "logs"};
constexpr std::string_view kLogNames[] = {"file", "offset", "lines", "dev",
                                          "ino",  "tail",   "fp"};

std::string snapshot_path(const std::string& dir) {
  return dir + "/" + kShardSnapshotFile;
}

/// The bytes `cache_to_json` starts with for a cache with `opts`: everything
/// before the first entry.  A snapshot taken under other options (or another
/// cache version) starts differently.
std::string cache_header(const KnowledgeCacheOptions& opts) {
  std::string header = cache_to_json(KnowledgeCache(opts));
  header.resize(header.size() - 3);  // "]}\n"
  return header;
}

}  // namespace

std::string manifest_line(const std::map<std::string, LogCoverage>& logs) {
  std::string out = "{\"harl_snapshot\":" + std::to_string(kSnapshotVersion) +
                    ",\"logs\":[";
  for (const auto& [name, c] : logs) {
    if (out.back() != '[') out += ',';
    out += "{\"file\":";
    json::append_escaped(&out, name);
    for (const auto& [key, value] :
         {std::make_pair("offset", c.offset), std::make_pair("lines", c.lines),
          std::make_pair("dev", c.dev), std::make_pair("ino", c.ino),
          std::make_pair("tail", c.tail), std::make_pair("fp", c.fp)}) {
      json::append_member(&out, key, value);
    }
    out += '}';
  }
  out += "]}\n";
  return out;
}

bool parse_manifest(const std::string& line,
                    std::map<std::string, LogCoverage>* out) {
  json::ParseError perr;
  json::Cursor c(line, &perr);
  json::Members<2> doc(kManifestNames);
  std::map<std::string, LogCoverage> logs;
  bool valid = true;  // every log entry of the last "logs" array is whole
  bool is_object = false;
  const bool read = doc.read_document(c, &is_object, [&](std::size_t f, json::Kind kind) {
    if (f != 1 || kind != json::Kind::kArray) return c.skip_value();
    logs.clear();
    valid = true;
    json::Kind item;
    c.enter_array();
    while (c.next_item()) {
      json::Members<7> log(kLogNames);
      if (!c.peek(&item) || (item == json::Kind::kObject ? !log.read(c) : !c.skip_value())) {
        return false;
      }
      valid = valid && log[0].is(json::Kind::kString);
      LogCoverage& cov = logs[log[0].string()];
      std::size_t k = 1;
      for (std::uint64_t* slot :
           {&cov.offset, &cov.lines, &cov.dev, &cov.ino, &cov.tail, &cov.fp}) {
        valid = valid && log[k].is(json::Kind::kNumber);
        *slot = log[k++].uint64(0);
      }
    }
    return c.ok();
  });
  if (!read || doc[0].int64(0) != kSnapshotVersion ||
      !doc[1].is(json::Kind::kArray) || !valid) {
    return false;
  }
  for (const auto& [name, cov] : logs) (*out)[name] = cov;
  return true;
}

namespace {

/// Restores `*cache` from the snapshot in `dir` and fills `*covered` with
/// the coverage it was taken at.  False, with both untouched, when there is
/// no snapshot or it does not validate; `*why` then says why (empty when
/// there is none).
bool restore_snapshot(const std::string& dir, KnowledgeCache* cache,
                      std::map<std::string, LogCoverage>* covered,
                      std::string* why) {
  const std::string path = snapshot_path(dir);
  if (::access(path.c_str(), F_OK) != 0) return false;
  std::string text;
  if (!read_checked_file(path, &text, why)) return false;
  const std::size_t nl = text.find('\n');
  std::map<std::string, LogCoverage> manifest;
  if (nl == std::string::npos || !parse_manifest(text.substr(0, nl), &manifest)) {
    *why = path + ": malformed manifest";
    return false;
  }
  for (const auto& [name, c] : manifest) {
    if (!log_covers(dir + "/" + name, c)) {
      *why = dir + "/" + name + " no longer holds the prefix the snapshot covers";
      return false;
    }
  }
  const std::string header = cache_header(cache->options());
  if (text.compare(nl + 1, header.size(), header) != 0) {
    *why = path + ": taken under other cache options";
    return false;
  }
  text.erase(0, nl + 1);
  std::string reason;
  if (!cache_from_json(text, cache, &reason)) {
    *why = path + ": " + reason;
    return false;
  }
  *covered = std::move(manifest);
  return true;
}

}  // namespace

ShardHydration hydrate_shard(const std::string& dir, KnowledgeCache* cache) {
  ShardHydration out;
  std::map<std::string, LogCoverage> snapshot;
  std::string why;
  out.restored = restore_snapshot(dir, cache, &snapshot, &why);
  if (!why.empty()) {
    HARL_LOG_INFO("kcache: snapshot not used (%s); replaying the logs",
                  why.c_str());
  }
  RecordReader reader;
  for (const std::string& path : jsonl_files(dir)) {
    const std::string name = path.substr(dir.size() + 1);
    const auto it = snapshot.find(name);
    if (!reader.open(path, it == snapshot.end() ? LogCoverage{} : it->second)) {
      continue;
    }
    cache->insert_log(reader);
    const LogCoverage c = reader.coverage();
    if (c.offset > 0) out.coverage.emplace(name, c);
  }
  out.current = out.restored && out.coverage == snapshot;
  return out;
}

bool snapshot_shard(const std::string& dir, const KnowledgeCacheOptions& opts,
                    std::string* error) {
  KnowledgeCache cache(opts);
  const ShardHydration h = hydrate_shard(dir, &cache);
  if (h.current) return true;
  return atomic_write_file(
      snapshot_path(dir),
      with_checksum_footer(manifest_line(h.coverage) + cache_to_json(cache)),
      /*fsync_publish=*/false, error);
}

}  // namespace harl
