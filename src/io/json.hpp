#pragma once

/// \file json.hpp
/// Hand-rolled tolerant JSON (no third-party deps): one pull `Cursor` that
/// every reader shares, raw-token numbers for uint64 fidelity, line/column
/// errors, byte-stable `format_double`.  Invariant: serialization is
/// deterministic — equal values produce equal bytes.  Collaborators: record,
/// gbdt_io.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace harl {
namespace json {

/// A parsed JSON value.  Numbers keep their *raw source text* so integer
/// fidelity survives beyond the 53-bit double mantissa (hardware fingerprints
/// and seeds are full 64-bit words) and doubles re-serialize to the exact
/// bytes they were written with.  Object member order is preserved, which
/// makes re-serialization deterministic.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

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

/// Parse failure position and message.  `line`/`column` are 1-based and point
/// at the offending character within the parsed text.
struct ParseError {
  bool ok = true;
  int line = 0;
  int column = 0;
  std::string message;

  std::string to_string() const;
};

/// A pull cursor over one JSON document — the library's only tokenizer.
/// `parse` builds `Value`s from it; streaming decoders (record lines) pull
/// members straight into their own structs.  Syntax rules, error messages
/// and positions therefore live here alone.  The first syntax error stops
/// the cursor and fills the `ParseError` (line/column derived from the byte
/// offset); every later call returns false.  Nesting deeper than 64
/// containers is an error.
///
/// Usage: `peek` the kind of the value at the cursor, then consume it with
/// the matching `read_*`, `enter_*` or `skip_value`.  After `enter_object`,
/// each `next_member` positions the cursor at one member's value until it
/// returns false at the closing brace (or on error — check `ok()`); arrays
/// work the same way with `enter_array` / `next_item`.  `finish` rejects
/// trailing content after the top-level value.
class Cursor {
 public:
  /// `text` must outlive the cursor.  Resets `*err` to ok.
  Cursor(const std::string& text, ParseError* err);

  bool ok() const { return err_->ok; }

  /// Kind of the value at the cursor, from its first byte (a number is
  /// anything not otherwise recognised; `read_number` validates it).
  bool peek(Value::Kind* kind);

  /// Consumes a string literal into `*out` (replacing its contents).
  bool read_string(std::string* out);
  /// Consumes a number; `*token` views its raw text within the document.
  bool read_number(std::string_view* token);
  bool read_bool(bool* out);
  bool read_null();
  /// Consumes and validates any value, containers included.
  bool skip_value();

  void enter_object();  ///< consumes '{' (after `peek` returned kObject)
  /// Next member of the innermost object: fills `*key` and leaves the cursor
  /// at the value.  False after the closing '}' or on error.
  bool next_member(std::string* key);
  void enter_array();   ///< consumes '[' (after `peek` returned kArray)
  /// Next item of the innermost array.  False after ']' or on error.
  bool next_item();

  /// After the top-level value: only whitespace may follow.
  bool finish();

 private:
  /// `pos_` never passes `size_`, where the text's terminating NUL sits.
  char cur() const { return data_[pos_]; }
  void skip_ws();
  bool fail(const char* msg);
  bool literal(const char* word);
  bool scan_string(std::string* out);  ///< `out` may be null (validate only)
  bool close(char closer, const char* what);

  const char* data_;  ///< NUL-terminated document text
  std::size_t size_;
  ParseError* err_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool opened_ = false;  ///< a container was just entered: no ',' expected
};

/// Parse one JSON document from `text`.  Trailing whitespace is allowed;
/// any other trailing content is an error.  On failure returns a null Value
/// and fills `*err` with the position.
Value parse(const std::string& text, ParseError* err);

/// Conversions of a raw number token, shared by `Value`'s accessors and the
/// streaming decoders.  Each returns `fallback` when the token does not fit
/// the type (ERANGE, underflow included); `number_to_uint64` also rejects
/// negative tokens.  `number_to_int64` truncates the double value of a
/// fractional or exponent token ("1.5" -> 1, "2e3" -> 2000) toward zero;
/// `number_to_uint64` reads its leading digits ("2e3" -> 2).  The byte
/// after `token` must not be able to extend the number, which holds for
/// every `Cursor` token and every `Value` (its raw text is NUL-terminated).
double number_to_double(std::string_view token, double fallback);
std::int64_t number_to_int64(std::string_view token, std::int64_t fallback);
std::uint64_t number_to_uint64(std::string_view token, std::uint64_t fallback);

/// Shortest decimal formatting of `v` that parses back bit-identically
/// (%.15g, widening to %.17g only when needed).  Not localized.
std::string format_double(double v);
/// `format_double`, appended to `*out`.
void append_double(std::string* out, double v);

/// Escape `s` as a JSON string literal including the quotes.
std::string escape(std::string_view s);
/// `escape`, appended to `*out`.
void append_escaped(std::string* out, std::string_view s);

}  // namespace json
}  // namespace harl
