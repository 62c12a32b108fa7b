#pragma once

/// \file json_dom.hpp
/// The `Value` DOM the library once parsed JSON into, kept as a test
/// oracle: an independent recursive-descent parser (`ref::parse`) builds
/// the tree, and the DOM decoders beside it (`dom_decoders.hpp`) walk it as
/// the library's readers did before they moved to `json::Cursor` and
/// `json::Members`.  Invariant: `ref::parse` accepts, rejects and positions
/// errors exactly as the cursor does (the record codec tests pin it).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/json.hpp"

namespace harl {
namespace ref {

/// A parsed JSON value.  Numbers keep their *raw source text* so integer
/// fidelity survives beyond the 53-bit double mantissa (hardware fingerprints
/// and seeds are full 64-bit words) and doubles re-serialize to the exact
/// bytes they were written with.  Object member order is preserved, which
/// makes re-serialization deterministic.
class Value {
 public:
  using Kind = json::Kind;

  Value() = default;

  static Value null();
  static Value boolean(bool b);
  static Value number_raw(std::string raw);  ///< pre-formatted numeric token
  static Value number(std::int64_t v);
  static Value number(std::uint64_t v);
  static Value number(double v);  ///< shortest round-trip formatting
  static Value string(std::string s);
  static Value array();
  static Value object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  const std::string& as_string() const { return str_; }
  /// Numeric accessors parse the raw token (see `number_to_double` & co.);
  /// they return the fallback when the value is not a number.
  double as_double(double fallback = 0) const;
  std::int64_t as_int64(std::int64_t fallback = 0) const;
  std::uint64_t as_uint64(std::uint64_t fallback = 0) const;
  const std::string& raw_number() const { return str_; }

  std::vector<Value>& items() { return items_; }
  const std::vector<Value>& items() const { return items_; }
  void push_back(Value v) { items_.push_back(std::move(v)); }

  std::vector<std::pair<std::string, Value>>& members() { return members_; }
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }
  void set(std::string key, Value v);
  /// Last member with `key` (duplicate keys: last one wins), or nullptr.
  const Value* find(const std::string& key) const;

  /// Compact one-line serialization (no spaces), member order preserved.
  std::string dump() const;

 private:
  void dump_to(std::string* out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string str_;  ///< string payload or raw number token
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Parse one JSON document from `text` with the reference parser.  Trailing
/// whitespace is allowed; any other trailing content is an error.  On
/// failure returns a null Value and fills `*err` with the position.
Value parse(const std::string& text, json::ParseError* err);

/// Escape `s` as a JSON string literal, quotes included (reference encoder).
std::string escape(const std::string& s);

/// Compact one-line serialization through `escape` (reference encoder).
std::string dump(const Value& v);

}  // namespace ref
}  // namespace harl
