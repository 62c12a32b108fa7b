#pragma once

/// \file json.hpp
/// Hand-rolled tolerant JSON (no third-party deps) with no tree: readers pull
/// members off one `Cursor` into a `Members` table of last occurrences, and
/// writers append (`append_escaped`, `append_double`, `append_int`) straight
/// into their output.  Raw-token numbers keep uint64 fidelity; errors carry
/// line and column; `format_double` is byte-stable.  Invariant:
/// serialization is deterministic — equal values produce equal bytes.
/// Collaborators: record, knowledge_cache, shard_snapshot, protocol, the
/// daemon's journal, gbdt_io.

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace harl {
namespace json {

/// The kind of a JSON value, as `Cursor::peek` sees it.
enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

/// Parse failure position and message.  `line`/`column` are 1-based and point
/// at the offending character within the parsed text.
struct ParseError {
  bool ok = true;
  int line = 0;
  int column = 0;
  std::string message;

  std::string to_string() const;
};

/// A pull cursor over one JSON document — the library's only tokenizer and
/// only reader: every decoder pulls members straight into its own structs,
/// most through a `Members` table.  Syntax rules, error messages and
/// positions therefore live here alone.  The first syntax error stops
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
  bool peek(Kind* kind);

  /// Consumes a string literal into `*out` (replacing its contents).
  bool read_string(std::string* out);
  /// Consumes a number; `*token` views its raw text within the document.
  bool read_number(std::string_view* token);
  bool read_bool(bool* out);
  bool read_null();
  /// Consumes the value of `kind` (from `peek`) at the cursor; `*token`
  /// views its raw text within the document: a string's body between its
  /// quotes (escapes still encoded), any other value's whole text.
  bool read_token(Kind kind, std::string_view* token);
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
  /// Consumes a string literal: `*body` views the text between its quotes;
  /// `out`, when not null, receives it decoded.
  bool scan_string(std::string_view* body, std::string* out);
  bool close(char closer, const char* what);

  const char* data_;  ///< NUL-terminated document text
  std::size_t size_;
  ParseError* err_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool opened_ = false;  ///< a container was just entered: no ',' expected
};

/// Conversions of a raw number token, shared by the decoders.  Each returns
/// `fallback` when the token does not fit the type (ERANGE, underflow
/// included); `number_to_uint64` also rejects negative tokens.  `number_to_int64` truncates the double value of a
/// fractional or exponent token ("1.5" -> 1, "2e3" -> 2000) toward zero;
/// `number_to_uint64` reads its leading digits ("2e3" -> 2).  The byte
/// after `token` must not be able to extend the number, which holds for
/// every `Cursor` token.
double number_to_double(std::string_view token, double fallback);
std::int64_t number_to_int64(std::string_view token, std::int64_t fallback);
std::uint64_t number_to_uint64(std::string_view token, std::uint64_t fallback);

/// Decodes a string body (`read_token`'s view of a string, whose escapes the
/// cursor validated) and appends it to `*out`.
void append_unescaped(std::string* out, std::string_view body);

/// One object member as a one-pass decoder keeps it: its last occurrence (a
/// duplicated key counts by its last value, type included), its kind, and,
/// for a scalar, its raw token (see `Cursor::read_token`).  A container
/// keeps only its kind; its decoder reads it during the pass.
struct Member {
  bool present = false;
  Kind kind = Kind::kNull;  ///< kNull also when absent
  std::string_view token;

  bool is(Kind k) const { return present && kind == k; }
  /// The token's value, or `fallback` when it is not a number or does not
  /// fit (see `number_to_int64` & co.).
  std::int64_t int64(std::int64_t fallback) const {
    return kind == Kind::kNumber ? number_to_int64(token, fallback) : fallback;
  }
  std::uint64_t uint64(std::uint64_t fallback) const {
    return kind == Kind::kNumber ? number_to_uint64(token, fallback) : fallback;
  }
  double number(double fallback) const {
    return kind == Kind::kNumber ? number_to_double(token, fallback) : fallback;
  }
  bool boolean() const { return kind == Kind::kBool && token == "true"; }
  /// The decoded string into `*out` (replacing it); empty when the member is
  /// not a string.
  void string(std::string* out) const {
    out->clear();
    if (kind == Kind::kString) append_unescaped(out, token);
  }
  std::string string() const {
    std::string out;
    string(&out);
    return out;
  }
};

/// The member table of one decoder: a `Member` per name it reads, filled in
/// one pass over an object.  The decoder checks the entries afterwards in a
/// fixed order, so a syntax error anywhere in the object is reported before
/// any field error.
template <std::size_t N>
class Members {
 public:
  /// `names` must outlive the table.
  explicit Members(const std::string_view (&names)[N]) : names_(names) {}

  Member& operator[](std::size_t f) { return members_[f]; }
  const Member& operator[](std::size_t f) const { return members_[f]; }
  std::string_view name(std::size_t f) const { return names_[f]; }

  /// Pulls every member of the object at `c` (after `peek` returned
  /// kObject).  A named member replaces its entry: a scalar is consumed
  /// into the token, and a container is handed to `container(f, kind)`,
  /// which consumes it and returns false on a syntax error.  Members the
  /// table does not name are validated and skipped.  False on a syntax
  /// error.
  template <typename Container>
  bool read(Cursor& c, Container&& container) {
    std::string key;
    c.enter_object();
    while (c.next_member(&key)) {
      std::size_t f = 0;
      while (f < N && key != names_[f]) ++f;
      if (f == N) {
        if (!c.skip_value()) return false;
        continue;
      }
      Member& m = members_[f];
      if (!c.peek(&m.kind)) return false;
      m.present = true;
      m.token = {};
      const bool consumed = m.kind == Kind::kArray || m.kind == Kind::kObject
                                ? container(f, m.kind)
                                : c.read_token(m.kind, &m.token);
      if (!consumed) return false;
    }
    return c.ok();
  }
  bool read(Cursor& c) {
    return read(c, [&c](std::size_t, Kind) { return c.skip_value(); });
  }

  /// The whole document at `c`: `read` when it is an object (else it is
  /// validated and skipped, and `*is_object` turns false), then `finish`.
  /// False on a syntax error anywhere.
  template <typename Container>
  bool read_document(Cursor& c, bool* is_object, Container&& container) {
    Kind kind;
    *is_object = c.peek(&kind) && kind == Kind::kObject;
    if (*is_object ? !read(c, container) : !c.skip_value()) return false;
    return c.finish();
  }
  bool read_document(Cursor& c, bool* is_object) {
    return read_document(c, is_object,
                         [&c](std::size_t, Kind) { return c.skip_value(); });
  }

 private:
  const std::string_view* names_;
  Member members_[N];
};

/// Pulls the array at `c` (after `peek` returned kArray), handing each
/// number token to `number(token)`.  `*numeric` turns false when an item is
/// not a number (the item is validated and skipped).  False on a syntax
/// error.
template <typename Number>
bool read_numbers(Cursor& c, Number&& number, bool* numeric) {
  *numeric = true;
  Kind kind;
  std::string_view token;
  c.enter_array();
  while (c.next_item()) {
    if (!c.peek(&kind)) return false;
    if (kind == Kind::kNumber) {
      if (!c.read_number(&token)) return false;
      number(token);
      continue;
    }
    *numeric = false;
    if (!c.skip_value()) return false;
  }
  return c.ok();
}

/// Shortest decimal formatting of `v` that parses back bit-identically
/// (%.15g, widening to %.17g only when needed).  Not localized.
std::string format_double(double v);
/// `format_double`, appended to `*out`.
void append_double(std::string* out, double v);

/// Escape `s` as a JSON string literal including the quotes.
std::string escape(std::string_view s);
/// `escape`, appended to `*out`.
void append_escaped(std::string* out, std::string_view s);

/// The decimal digits of `v` ("%lld"/"%llu"), appended to `*out`.
template <typename Int>
void append_int(std::string* out, Int v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// `,"name":value` appended to `*out`: a member after the first of an
/// object being written.  A string is escaped, a double goes through
/// `append_double`, an integer through `append_int`.
template <typename T>
void append_member(std::string* out, std::string_view name, const T& value) {
  static_assert(!std::is_same_v<T, bool>, "write a bool's literal directly");
  *out += ",\"";
  *out += name;
  *out += "\":";
  if constexpr (std::is_floating_point_v<T>) {
    append_double(out, value);
  } else if constexpr (std::is_integral_v<T>) {
    append_int(out, value);
  } else {
    append_escaped(out, value);
  }
}

}  // namespace json
}  // namespace harl
