#include "cost/gbdt_io.hpp"

#include <cstdio>
#include <utility>

#include "io/json.hpp"
#include "io/safe_file.hpp"
#include "util/fnv.hpp"

namespace harl {

namespace {

using json::Value;

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
  Value obj = json::parse(text, &perr);
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
      if (c <= i || c + 1 >= nodes) {
        *error = "child index out of range or non-monotone (cycle)";
        return false;
      }
    }
  }

  out->restore(cfg, nf, fit, base, std::move(feat), std::move(thresh),
               std::move(child), std::move(root), rng_state, rng_inc);
  return true;
}

std::uint64_t gbdt_fingerprint(const Gbdt& model) {
  return fnv1a_nonzero(gbdt_to_json(model));
}

bool save_gbdt(const Gbdt& model, const std::string& path, std::string* error,
               bool fsync) {
  return atomic_write_file(path, with_checksum_footer(gbdt_to_json(model)),
                           fsync, error);
}

bool load_gbdt(const std::string& path, Gbdt* out, std::string* error) {
  std::string text;
  if (!read_checked_file(path, &text, error)) return false;
  std::string reason;
  if (!gbdt_from_json(text, out, &reason)) {
    if (error != nullptr) *error = path + ": " + reason;
    return false;
  }
  return true;
}

}  // namespace harl
