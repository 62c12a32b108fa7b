#include "cost/gbdt_io.hpp"

#include <type_traits>
#include <utility>

#include "io/json.hpp"
#include "io/safe_file.hpp"
#include "util/fnv.hpp"

namespace harl {

namespace {

using json::Kind;

/// `,"name":[...]` of numbers, appended to `*out`.
template <typename T>
void append_array(std::string* out, const char* name, const std::vector<T>& v) {
  *out += ",\"";
  *out += name;
  *out += "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) *out += ',';
    if constexpr (std::is_floating_point_v<T>) {
      json::append_double(out, v[i]);
    } else {
      json::append_int(out, v[i]);
    }
  }
  *out += ']';
}

// Model members, in the order `gbdt_from_json` checks them.
enum Field {
  kVersion, kCfg, kNf, kFit, kBase, kFeat, kThresh, kChild, kRoot, kRng,
  kNumFields
};
constexpr std::string_view kFieldNames[kNumFields] = {
    "harl_gbdt", "cfg", "nf", "fit", "base", "feat", "thresh", "child",
    "root", "rng"};

enum CfgField {
  kTrees, kDepth, kLr, kMinLeaf, kRowSub, kColSub, kL2, kSeed, kSplit, kBins,
  kNumCfgFields
};
constexpr std::string_view kCfgNames[kNumCfgFields] = {
    "trees", "depth", "lr", "min_leaf", "row_sub", "col_sub", "l2", "seed",
    "split", "bins"};

/// The last occurrence of one number array: its items and whether every
/// item was a number.
template <typename T>
struct Numbers {
  std::vector<T> items;
  bool numeric = true;
};

/// Pulls the number array at `c` into `*out`, replacing its last occurrence.
template <typename T>
bool read_array(json::Cursor& c, Numbers<T>* out) {
  out->items.clear();
  auto push = [out](std::string_view token) {
    if constexpr (std::is_same_v<T, double>) {
      out->items.push_back(json::number_to_double(token, 0));
    } else if constexpr (std::is_same_v<T, int>) {
      out->items.push_back(static_cast<int>(json::number_to_int64(token, 0)));
    } else {
      out->items.push_back(json::number_to_uint64(token, 0));
    }
  };
  return json::read_numbers(c, push, &out->numeric);
}

}  // namespace

std::string gbdt_to_json(const Gbdt& model) {
  const GbdtConfig& cfg = model.config();
  std::string out = "{\"harl_gbdt\":";
  json::append_int(&out, kGbdtModelVersion);
  out += ",\"cfg\":{\"trees\":";
  json::append_int(&out, cfg.num_trees);
  json::append_member(&out, "depth", cfg.max_depth);
  json::append_member(&out, "lr", cfg.learning_rate);
  json::append_member(&out, "min_leaf", cfg.min_samples_leaf);
  json::append_member(&out, "row_sub", cfg.row_subsample);
  json::append_member(&out, "col_sub", cfg.col_subsample);
  json::append_member(&out, "l2", cfg.l2_lambda);
  json::append_member(&out, "seed", cfg.seed);
  json::append_member(&out, "split", cfg.split_mode == SplitMode::kHistogram ? 1 : 0);
  json::append_member(&out, "bins", cfg.histogram_bins);
  out += '}';
  json::append_member(&out, "nf", model.num_features());
  json::append_member(&out, "fit", model.num_trees_fit());
  json::append_member(&out, "base", model.base_score());
  append_array(&out, "feat", model.flat_feature());
  append_array(&out, "thresh", model.flat_thresh());
  append_array(&out, "child", model.flat_child());
  append_array(&out, "root", model.flat_root());
  append_array(&out, "rng", std::vector<std::uint64_t>{model.rng().serial_state(),
                                                       model.rng().serial_inc()});
  out += "}\n";
  return out;
}

// One pass over the document pulls every member into the tables (the arrays
// straight into vectors); the checks run afterwards in a fixed order, so a
// syntax error anywhere is reported before any field error.
bool gbdt_from_json(const std::string& text, Gbdt* out, std::string* error) {
  json::ParseError perr;
  json::Cursor c(text, &perr);
  json::Members<kNumFields> m(kFieldNames);
  json::Members<kNumCfgFields> cm(kCfgNames);
  Numbers<int> feat, child, root;
  Numbers<double> thresh;
  Numbers<std::uint64_t> rng;
  bool is_object = false;
  const bool read = m.read_document(c, &is_object, [&](std::size_t f, Kind kind) {
    if (kind == Kind::kObject) {
      if (f != kCfg) return c.skip_value();
      cm = json::Members<kNumCfgFields>(kCfgNames);
      return cm.read(c);
    }
    switch (f) {
      case kFeat: return read_array(c, &feat);
      case kThresh: return read_array(c, &thresh);
      case kChild: return read_array(c, &child);
      case kRoot: return read_array(c, &root);
      case kRng: return read_array(c, &rng);
      default: return c.skip_value();
    }
  });
  if (!read) {
    *error = perr.to_string();
    return false;
  }
  if (!is_object) {
    *error = "model document is not a JSON object";
    return false;
  }

  auto number = [error](const json::Member& v, std::string_view key) {
    if (v.is(Kind::kNumber)) return true;
    *error = "missing or non-numeric field \"" + std::string(key) + "\"";
    return false;
  };
  auto array = [&](std::size_t f, bool numeric) {
    if (!m[f].is(Kind::kArray)) {
      *error = "missing or non-array field \"" + std::string(kFieldNames[f]) + "\"";
      return false;
    }
    if (numeric) return true;
    *error = "non-numeric entry in \"" + std::string(kFieldNames[f]) + "\"";
    return false;
  };

  if (!number(m[kVersion], kFieldNames[kVersion])) return false;
  int version = static_cast<int>(m[kVersion].int64(0));
  if (version > kGbdtModelVersion) {
    *error = "incompatible model version " + std::to_string(version) +
             " (reader supports <= " + std::to_string(kGbdtModelVersion) + ")";
    return false;
  }

  if (!m[kCfg].is(Kind::kObject)) {
    *error = "missing or non-object field \"cfg\"";
    return false;
  }
  for (std::size_t f = 0; f < kNumCfgFields; ++f) {
    if (!number(cm[f], kCfgNames[f])) return false;
  }
  GbdtConfig cfg;
  cfg.num_trees = static_cast<int>(cm[kTrees].int64(0));
  cfg.max_depth = static_cast<int>(cm[kDepth].int64(0));
  cfg.learning_rate = cm[kLr].number(0);
  cfg.min_samples_leaf = static_cast<int>(cm[kMinLeaf].int64(0));
  cfg.row_subsample = cm[kRowSub].number(0);
  cfg.col_subsample = cm[kColSub].number(0);
  cfg.l2_lambda = cm[kL2].number(0);
  cfg.seed = cm[kSeed].uint64(0);
  cfg.split_mode = cm[kSplit].int64(0) == 1 ? SplitMode::kHistogram : SplitMode::kExact;
  cfg.histogram_bins = static_cast<int>(cm[kBins].int64(0));

  for (std::size_t f : {kNf, kFit, kBase}) {
    if (!number(m[f], kFieldNames[f])) return false;
  }
  const int nf = static_cast<int>(m[kNf].int64(0));
  const int fit = static_cast<int>(m[kFit].int64(0));
  const double base = m[kBase].number(0);

  if (!array(kFeat, feat.numeric) || !array(kThresh, thresh.numeric) ||
      !array(kChild, child.numeric) || !array(kRoot, root.numeric)) {
    return false;
  }
  if (!m[kRng].is(Kind::kArray) || rng.items.size() != 2 || !rng.numeric) {
    *error = "missing or malformed field \"rng\" (expected [state, inc])";
    return false;
  }

  // Structural validation: the predict loop chases child indices without
  // bounds checks, so a corrupt file must be rejected here.
  const int nodes = static_cast<int>(feat.items.size());
  if (thresh.items.size() != feat.items.size() ||
      child.items.size() != feat.items.size()) {
    *error = "forest arrays have mismatched lengths";
    return false;
  }
  if (nf < 0 || fit < 0 || static_cast<int>(root.items.size()) != fit) {
    *error = "root count " + std::to_string(root.items.size()) +
             " does not match fitted tree count " + std::to_string(fit);
    return false;
  }
  for (int r : root.items) {
    if (r < 0 || r >= nodes) {
      *error = "root index out of range";
      return false;
    }
  }
  for (int i = 0; i < nodes; ++i) {
    const std::size_t n = static_cast<std::size_t>(i);
    if (feat.items[n] >= nf) {
      *error = "node feature index out of range";
      return false;
    }
    if (feat.items[n] >= 0) {
      const int next = child.items[n];
      // `flatten` appends children breadth-first, so every legitimate file
      // has child > parent; enforcing it makes the forest provably acyclic
      // (predict chases child links in an unbounded loop).  The right child
      // is `next + 1`, compared without computing it (no int overflow).
      if (next <= i || next >= nodes - 1) {
        *error = "child index out of range or non-monotone (cycle)";
        return false;
      }
    }
  }

  out->restore(cfg, nf, fit, base, std::move(feat.items), std::move(thresh.items),
               std::move(child.items), std::move(root.items), rng.items[0],
               rng.items[1]);
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
