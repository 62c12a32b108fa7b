#include "serve/knowledge_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <utility>

#include "exp/transfer.hpp"
#include "features/feature_extractor.hpp"
#include "io/json.hpp"
#include "io/record_io.hpp"
#include "io/safe_file.hpp"
#include "sched/tiling.hpp"
#include "util/fnv.hpp"
#include "util/logging.hpp"

namespace harl {

const char* serve_tier_name(ServeTier tier) {
  switch (tier) {
    case ServeTier::kL1: return "L1";
    case ServeTier::kL2: return "L2";
    case ServeTier::kL3: return "L3";
    case ServeTier::kMiss: return "miss";
  }
  return "?";
}

KnowledgeCache::KnowledgeCache(KnowledgeCacheOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.top_k < 1) opts_.top_k = 1;
  if (opts_.rerank_k < 1) opts_.rerank_k = 1;
}

void KnowledgeCache::set_model(std::shared_ptr<const Gbdt> model) {
  std::lock_guard<std::mutex> lock(mu_);
  model_ = std::move(model);
}

std::shared_ptr<const Gbdt> KnowledgeCache::model() const {
  std::lock_guard<std::mutex> lock(mu_);
  return model_;
}

bool KnowledgeCache::insert(const TuningRecord& rec, bool* displaced_best) {
  if (displaced_best != nullptr) *displaced_best = false;
  // Failed or timeless records can never serve: reject them at the door so a
  // fault upstream cannot poison an answer.
  if (!(rec.time_ms > 0) || !rec.fail.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
    return false;
  }
  {
    // Most records of a long log lose to a full entry on time alone: count
    // them evicted without serializing.  `find`, so the check never creates
    // an entry; equal times still need the byte tie-break below.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(Key{rec.network, rec.task, rec.hardware_fp});
    if (it != entries_.end() &&
        it->second.records.size() >= static_cast<std::size_t>(opts_.top_k) &&
        rec.time_ms > it->second.records.back().time_ms) {
      ++stats_.evictions;
      return false;
    }
  }
  std::string serialized = record_to_json(rec);
  std::lock_guard<std::mutex> lock(mu_);
  return insert_locked(rec, std::move(serialized), displaced_best);
}

bool KnowledgeCache::insert_locked(const TuningRecord& rec,
                                   std::string serialized,
                                   bool* displaced_best) {
  Entry& entry = entries_[Key{rec.network, rec.task, rec.hardware_fp}];
  // Position under the total order (time_ms asc, serialized asc).
  std::size_t pos = 0;
  while (pos < entry.records.size() &&
         (entry.records[pos].time_ms < rec.time_ms ||
          (entry.records[pos].time_ms == rec.time_ms &&
           entry.serialized[pos] < serialized))) {
    ++pos;
  }
  if (pos < entry.serialized.size() && entry.serialized[pos] == serialized) {
    ++stats_.duplicates;
    return false;
  }
  const std::size_t top_k = static_cast<std::size_t>(opts_.top_k);
  if (pos >= top_k) {
    ++stats_.evictions;  // full of strictly better records
    return false;
  }
  if (pos == 0 && !entry.records.empty()) {
    // The entry's previous best is retired: the cached answer for this key
    // just changed and any published copy is stale.
    ++stats_.invalidations;
    if (displaced_best != nullptr) *displaced_best = true;
  }
  entry.records.insert(entry.records.begin() + static_cast<std::ptrdiff_t>(pos),
                       rec);
  entry.serialized.insert(
      entry.serialized.begin() + static_cast<std::ptrdiff_t>(pos),
      std::move(serialized));
  ++stats_.inserts;
  if (entry.records.size() > top_k) {
    entry.records.pop_back();
    entry.serialized.pop_back();
    ++stats_.evictions;
  }
  return true;
}

std::size_t KnowledgeCache::insert_log(const std::string& path) {
  RecordReader reader;
  if (!reader.open(path)) return 0;
  return insert_log(reader);
}

std::size_t KnowledgeCache::insert_log(RecordReader& reader) {
  std::size_t added = 0;
  TuningRecord rec;
  while (reader.next(&rec)) {
    if (insert(rec)) ++added;
  }
  // A damaged log still hydrates what it can, but never silently.
  if (const auto& errors = reader.errors(); !errors.empty()) {
    HARL_LOG_WARN("kcache: %s: skipped %zu malformed line(s); first at line %zu: %s",
                  reader.path().c_str(), errors.size(),
                  errors.front().line_number, errors.front().message.c_str());
  }
  return added;
}

const KnowledgeCache::TaskContext& KnowledgeCache::context_locked(
    const std::string& network, const Subgraph& task) {
  auto key = std::make_pair(network, task.name());
  auto it = contexts_.find(key);
  if (it != contexts_.end()) {
    const TaskContext& ctx = *it->second;
    // Same (network, task) name but different structure or shape: the cached
    // sketches describe a different program — re-register.
    if (ctx.graph.num_stages() == task.num_stages() &&
        ctx.graph.structure_signature() == task.structure_signature() &&
        ctx.graph.stage(ctx.graph.anchor_stage()).op.axes.size() ==
            task.stage(task.anchor_stage()).op.axes.size()) {
      bool same_extents = true;
      const TensorOp& a = ctx.graph.stage(ctx.graph.anchor_stage()).op;
      const TensorOp& b = task.stage(task.anchor_stage()).op;
      for (std::size_t i = 0; i < a.axes.size(); ++i) {
        if (a.axes[i].extent != b.axes[i].extent) same_extents = false;
      }
      if (same_extents) return ctx;
    }
  }
  auto ctx = std::make_unique<TaskContext>();
  ctx->graph = task;  // owned copy: sketches must never dangle
  ctx->sketches = generate_sketches(ctx->graph);
  TaskContext& ref = *ctx;
  contexts_[key] = std::move(ctx);
  return ref;
}

ServeResult KnowledgeCache::serve(const std::string& network,
                                  const Subgraph& task,
                                  const HardwareConfig& hw) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.queries;
  const TaskContext& ctx = context_locked(network, task);
  const int num_unroll = hw.num_unroll_options();
  const Key key{network, task.name(), hw.fingerprint()};

  // ---- L1: exact (network, task, hardware) entry, best record first ------
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    for (std::size_t i = 0; i < it->second.records.size(); ++i) {
      const TuningRecord& rec = it->second.records[i];
      std::string error;
      Schedule s = schedule_from_record(rec, ctx.sketches, num_unroll, &error);
      if (s.sketch == nullptr) {
        ++stats_.rejected;
        HARL_LOG_DEBUG("kcache: L1 record %zu of %s/%s unusable: %s", i,
                       network.c_str(), task.name().c_str(), error.c_str());
        continue;
      }
      ++stats_.l1_hits;
      ServeResult res;
      res.tier = ServeTier::kL1;
      res.schedule = std::move(s);
      res.est_time_ms = rec.time_ms;
      res.score = 1.0;
      res.record = rec;
      res.record_json = it->second.serialized[i];
      return res;
    }
  }

  // ---- L2: scored structural transfer + cost-model re-rank ---------------
  ServeResult l2 = serve_l2_locked(key, task, hw, ctx);
  if (l2.tier == ServeTier::kL2) {
    ++stats_.l2_hits;
    return l2;
  }

  // ---- L3: deterministic golden advice (or an honest miss) ---------------
  if (opts_.golden_advice && !ctx.sketches.empty()) {
    ++stats_.l3_hits;
    ServeResult res;
    res.tier = ServeTier::kL3;
    res.schedule = golden_advice_schedule(ctx.sketches.front(), num_unroll);
    return res;
  }
  ++stats_.misses;
  return ServeResult{};
}

ServeResult KnowledgeCache::serve_l2_locked(const Key& query_key,
                                            const Subgraph& task,
                                            const HardwareConfig& hw,
                                            const TaskContext& ctx) {
  ServeResult miss;
  const std::string sig = task.structure_signature();
  const int anchor = task.anchor_stage();
  const TensorOp& anchor_op = task.stage(anchor).op;
  std::vector<std::int64_t> target_extents;
  target_extents.reserve(anchor_op.axes.size());
  for (const Axis& a : anchor_op.axes) target_extents.push_back(a.extent);
  const std::uint64_t hw_fp = hw.fingerprint();
  const std::vector<double> hw_vec = hw.similarity_vector();
  const double hw_peak = HardwareConfig::peak_flops_of(hw_vec);
  const double target_points =
      static_cast<double>(anchor_op.iter_space_points());
  const int num_unroll = hw.num_unroll_options();

  // Score every record of every sibling entry with the transfer formula
  // (hw_sim * extent_sim, structure-signature gated).
  struct Candidate {
    const TuningRecord* record;
    const std::string* serialized;
    double score;
    double est_time_ms;
  };
  std::vector<Candidate> candidates;
  for (const auto& [key, entry] : entries_) {
    if (!(key < query_key) && !(query_key < key)) continue;  // L1 handled it
    for (std::size_t i = 0; i < entry.records.size(); ++i) {
      const TuningRecord& rec = entry.records[i];
      double hw_sim = 1.0;
      double speed_ratio = 1.0;  // source peak / target peak
      if (rec.hardware_fp != hw_fp) {
        hw_sim = HardwareConfig::similarity(rec.hw_sim, hw_vec);
        if (hw_sim <= 0) continue;  // no similarity vector: cannot cross hw
        double src_peak = HardwareConfig::peak_flops_of(rec.hw_sim);
        if (src_peak > 0 && hw_peak > 0) speed_ratio = src_peak / hw_peak;
      }
      if (!rec.task_sig.empty() && rec.task_sig != sig) continue;
      std::vector<std::int64_t> src_extents = record_anchor_extents(rec, anchor);
      double ext_sim = extent_similarity(src_extents, target_extents);
      if (ext_sim <= 0) continue;
      double score = hw_sim * ext_sim;
      if (score < opts_.min_score) continue;
      double src_points = 1;
      for (std::int64_t e : src_extents) src_points *= static_cast<double>(e);
      double est = rec.time_ms * (target_points / src_points) * speed_ratio *
                   opts_.time_penalty;
      candidates.push_back({&rec, &entry.serialized[i], score, est});
    }
  }
  if (candidates.empty()) return miss;

  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.est_time_ms != b.est_time_ms) {
                return a.est_time_ms < b.est_time_ms;
              }
              return *a.serialized < *b.serialized;
            });

  // Adapt the best-scored few; failures are dropped, not fatal.
  struct Adapted {
    const Candidate* cand;
    Schedule schedule;
  };
  std::vector<Adapted> adapted;
  const std::size_t rerank = static_cast<std::size_t>(opts_.rerank_k);
  for (const Candidate& c : candidates) {
    if (adapted.size() >= rerank) break;
    std::string error;
    Schedule s =
        adapt_record_schedule(*c.record, ctx.sketches, num_unroll, &error);
    if (s.sketch == nullptr) {
      ++stats_.rejected;
      HARL_LOG_DEBUG("kcache: L2 candidate for %s unusable: %s",
                     task.name().c_str(), error.c_str());
      continue;
    }
    adapted.push_back({&c, std::move(s)});
  }
  if (adapted.empty()) return miss;

  // Cost-model re-rank: the pretrained GBDT scores the adapted schedules
  // under the *query* hardware; without a model the best-scored match wins.
  std::size_t winner = 0;
  if (model_ != nullptr && model_->trained() &&
      model_->num_features() == FeatureExtractor::kNumFeatures &&
      adapted.size() > 1) {
    FeatureExtractor fx(&hw);
    std::vector<double> rows(adapted.size() * FeatureExtractor::kNumFeatures);
    for (std::size_t i = 0; i < adapted.size(); ++i) {
      fx.extract_into(adapted[i].schedule,
                      rows.data() + i * FeatureExtractor::kNumFeatures);
    }
    std::vector<double> pred(adapted.size());
    model_->predict_batch(rows.data(), adapted.size(), pred.data());
    for (std::size_t i = 1; i < adapted.size(); ++i) {
      if (pred[i] > pred[winner]) winner = i;  // ties keep the better match
    }
  }

  ServeResult res;
  res.tier = ServeTier::kL2;
  res.schedule = std::move(adapted[winner].schedule);
  res.est_time_ms = adapted[winner].cand->est_time_ms;
  res.score = adapted[winner].cand->score;
  res.record = *adapted[winner].cand->record;
  res.record_json = *adapted[winner].cand->serialized;
  return res;
}

std::size_t KnowledgeCache::num_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::size_t KnowledgeCache::num_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, entry] : entries_) n += entry.records.size();
  return n;
}

ServeStats KnowledgeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void KnowledgeCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = ServeStats{};
}

std::uint64_t KnowledgeCache::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

void KnowledgeCache::note_publish(std::uint64_t fp) {
  std::lock_guard<std::mutex> lock(mu_);
  generation_ = fp;
  ++stats_.refreshes;
}

void KnowledgeCache::note_reload(std::uint64_t fp) {
  std::lock_guard<std::mutex> lock(mu_);
  generation_ = fp;
  ++stats_.refreshes;
}

Schedule golden_advice_schedule(const Sketch& sketch, int num_unroll_options) {
  // A valid structure first (fixed seed: pure function of the sketch), then
  // the heuristic defaults: even per-level tile shares, no unrolling, root
  // compute-at.  Parallel depth keeps random_schedule's valid choice.
  Rng rng(0x9e3779b97f4a7c15ULL);
  Schedule base = random_schedule(sketch, num_unroll_options, rng);
  Schedule advice = base;
  for (StageSchedule& ss : advice.stages) {
    for (TileVector& t : ss.tiles) {
      std::vector<std::int64_t> even(t.factors.size(), 2);
      t.factors = adapt_tile_factors(even, t.product());
    }
    ss.unroll_index = 0;
    ss.compute_at = 0;
  }
  if (validate_schedule(advice, num_unroll_options).empty()) return advice;
  return base;
}

std::string cache_to_json(const KnowledgeCache& cache) {
  std::lock_guard<std::mutex> lock(cache.mu_);
  std::string out;
  out.reserve(256);
  out += "{\"harl_kcache\":";
  out += std::to_string(kKnowledgeCacheVersion);
  out += ",\"topk\":";
  out += std::to_string(cache.opts_.top_k);
  out += ",\"min_score\":";
  out += json::format_double(cache.opts_.min_score);
  out += ",\"penalty\":";
  out += json::format_double(cache.opts_.time_penalty);
  out += ",\"rerank\":";
  out += std::to_string(cache.opts_.rerank_k);
  out += ",\"golden\":";
  out += cache.opts_.golden_advice ? "true" : "false";
  out += ",\"entries\":[";
  bool first_entry = true;
  for (const auto& [key, entry] : cache.entries_) {
    if (!first_entry) out += ",";
    first_entry = false;
    out += "{\"net\":";
    out += json::escape(key.network);
    out += ",\"task\":";
    out += json::escape(key.task);
    out += ",\"hw\":";
    out += std::to_string(key.hw_fp);
    out += ",\"records\":[";
    for (std::size_t i = 0; i < entry.serialized.size(); ++i) {
      if (i > 0) out += ",";
      out += entry.serialized[i];  // exact record_to_json bytes
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

namespace {

using json::Kind;

/// The records of one "entries" member, or the first reason it is unusable
/// (entries, and within an entry its records, are checked in order).
struct DecodedEntries {
  std::vector<TuningRecord> records;
  std::string error;
};

constexpr std::string_view kEntryNames[] = {"records"};

/// Decodes the "entries" array at `c` (after `peek` returned kArray).  False
/// on a syntax error.  A duplicated "records" member counts by its last
/// occurrence.
bool read_entries(json::Cursor& c, DecodedEntries* out) {
  out->records.clear();
  out->error.clear();
  Kind kind;
  std::string record_error;
  c.enter_array();
  while (c.next_item()) {
    if (!out->error.empty()) {  // the verdict is in: only validate syntax
      if (!c.skip_value()) return false;
      continue;
    }
    if (!c.peek(&kind)) return false;
    if (kind != Kind::kObject) {
      out->error = "cache entry is not an object";
      if (!c.skip_value()) return false;
      continue;
    }
    const std::size_t first = out->records.size();
    std::string entry_error;
    json::Members<1> entry(kEntryNames);
    const bool read = entry.read(c, [&](std::size_t, Kind k) {
      out->records.resize(first);
      entry_error.clear();
      if (k != Kind::kArray) return c.skip_value();
      c.enter_array();
      while (c.next_item()) {
        if (!entry_error.empty()) {
          if (!c.skip_value()) return false;
          continue;
        }
        TuningRecord rec;
        if (!read_record(c, &rec, &record_error)) return false;
        if (record_error.empty()) {
          out->records.push_back(std::move(rec));
        } else {
          entry_error = "embedded record invalid: " + record_error;
        }
      }
      return c.ok();
    });
    if (!read) return false;
    if (!entry[0].is(Kind::kArray)) {
      out->error = "cache entry without a \"records\" array";
    } else if (!entry_error.empty()) {
      out->error = std::move(entry_error);
    }
  }
  return c.ok();
}

enum HeaderField { kVersion, kTopK, kMinScore, kPenalty, kRerank, kGolden,
                   kEntries, kNumHeaderFields };
constexpr std::string_view kHeaderNames[kNumHeaderFields] = {
    "harl_kcache", "topk", "min_score", "penalty", "rerank", "golden",
    "entries"};

}  // namespace

// One pass over the document, like `record_from_json`: every member is
// pulled as it comes (a duplicated member counts by its last occurrence),
// and the checks run afterwards in a fixed order, so a syntax error anywhere
// is reported before any other error.
bool cache_from_json(const std::string& text, KnowledgeCache* out,
                     std::string* error) {
  json::ParseError perr;
  json::Cursor c(text, &perr);
  json::Members<kNumHeaderFields> header(kHeaderNames);
  DecodedEntries entries;
  bool is_object = false;
  const bool read = header.read_document(c, &is_object, [&](std::size_t f, Kind k) {
    return f == kEntries && k == Kind::kArray ? read_entries(c, &entries)
                                              : c.skip_value();
  });
  if (!read) {
    *error = "cache parse error: " + perr.to_string();
    return false;
  }
  if (!is_object) {
    *error = "cache document is not an object";
    return false;
  }
  if (!header[kVersion].is(Kind::kNumber)) {
    *error = "not a knowledge-cache file (missing harl_kcache)";
    return false;
  }
  const std::int64_t version = header[kVersion].int64(0);
  if (version > kKnowledgeCacheVersion) {
    *error = "incompatible cache version " + std::to_string(version);
    return false;
  }

  // Each option keeps its default unless its member is a number (or, for
  // "golden", a boolean).
  KnowledgeCacheOptions opts;
  opts.top_k = static_cast<int>(header[kTopK].int64(opts.top_k));
  opts.min_score = header[kMinScore].number(opts.min_score);
  opts.time_penalty = header[kPenalty].number(opts.time_penalty);
  opts.rerank_k = static_cast<int>(header[kRerank].int64(opts.rerank_k));
  if (header[kGolden].is(Kind::kBool)) {
    opts.golden_advice = header[kGolden].boolean();
  }
  if (header[kEntries].present && header[kEntries].kind != Kind::kArray) {
    *error = "cache field \"entries\" is not an array";
    return false;
  }
  if (!entries.error.empty()) {
    *error = std::move(entries.error);
    return false;
  }

  {
    std::lock_guard<std::mutex> lock(out->mu_);
    out->opts_ = opts;
    if (out->opts_.top_k < 1) out->opts_.top_k = 1;
    if (out->opts_.rerank_k < 1) out->opts_.rerank_k = 1;
    out->entries_.clear();
    // Task contexts survive a reload: they derive from the queried tasks,
    // not from the records, and schedules served before the reload still
    // point into their sketches.
    for (const TuningRecord& rec : entries.records) {
      if (!(rec.time_ms > 0) || !rec.fail.empty()) continue;
      out->insert_locked(rec, record_to_json(rec));
    }
    out->stats_ = ServeStats{};  // a loaded cache starts with clean counters
  }
  return true;
}

bool save_cache(const KnowledgeCache& cache, const std::string& path,
                std::string* error, bool fsync) {
  return atomic_write_file(path, with_checksum_footer(cache_to_json(cache)),
                           fsync, error);
}

bool load_cache(const std::string& path, KnowledgeCache* out,
                std::string* error) {
  std::string text;
  if (!read_checked_file(path, &text, error)) return false;
  std::string reason;
  if (!cache_from_json(text, out, &reason)) {
    if (error != nullptr) *error = path + ": " + reason;
    return false;
  }
  return true;
}

bool publish_cache(KnowledgeCache& cache, const std::string& path,
                   std::string* error, bool fsync) {
  // Serialize exactly once so the stamped generation is the fingerprint of
  // the bytes a reader of `path` will actually see.
  std::string text = cache_to_json(cache);
  if (!atomic_write_file(path, with_checksum_footer(text), fsync, error)) {
    return false;
  }
  cache.note_publish(fnv1a_nonzero(text));
  return true;
}

std::uint64_t cache_fingerprint(const KnowledgeCache& cache) {
  return fnv1a_nonzero(cache_to_json(cache));
}

}  // namespace harl
