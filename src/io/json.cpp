#include "io/json.hpp"

#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace harl {
namespace json {

// ---------------------------------------------------------------- Value

Value Value::null() { return Value(); }

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::number_raw(std::string raw) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.str_ = std::move(raw);
  return v;
}

Value Value::number(std::int64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(n));
  return number_raw(buf);
}

Value Value::number(std::uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(n));
  return number_raw(buf);
}

Value Value::number(double v) { return number_raw(format_double(v)); }

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

double Value::as_double(double fallback) const {
  return kind_ == Kind::kNumber ? number_to_double(str_, fallback) : fallback;
}

std::int64_t Value::as_int64(std::int64_t fallback) const {
  return kind_ == Kind::kNumber ? number_to_int64(str_, fallback) : fallback;
}

std::uint64_t Value::as_uint64(std::uint64_t fallback) const {
  return kind_ == Kind::kNumber ? number_to_uint64(str_, fallback) : fallback;
}

void Value::set(std::string key, Value v) {
  members_.emplace_back(std::move(key), std::move(v));
}

const Value* Value::find(const std::string& key) const {
  const Value* found = nullptr;
  for (const auto& kv : members_) {
    if (kv.first == key) found = &kv.second;
  }
  return found;
}

std::string Value::dump() const {
  std::string out;
  dump_to(&out);
  return out;
}

void Value::dump_to(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      *out += str_;
      return;
    case Kind::kString:
      append_escaped(out, str_);
      return;
    case Kind::kArray:
      *out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) *out += ',';
        items_[i].dump_to(out);
      }
      *out += ']';
      return;
    case Kind::kObject:
      *out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) *out += ',';
        append_escaped(out, members_[i].first);
        *out += ':';
        members_[i].second.dump_to(out);
      }
      *out += '}';
      return;
  }
}

// ---------------------------------------------------------------- helpers

double number_to_double(std::string_view token, double fallback) {
  // std::from_chars rounds exactly as strtod does.  Trust it where strtod
  // could not report ERANGE — a whole-token parse strictly between DBL_MIN
  // and DBL_MAX in magnitude — and leave the edges to strtod itself.
  double v = 0;
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), last, v);
  if (ec == std::errc() && ptr == last && std::fabs(v) > DBL_MIN &&
      std::fabs(v) < DBL_MAX) {
    return v;
  }
  errno = 0;
  char* end = nullptr;
  v = std::strtod(token.data(), &end);
  if (end == token.data() || errno == ERANGE) return fallback;
  return v;
}

// Integer tokens use std::from_chars: on the JSON number grammar it agrees
// with strtoll/strtoull (no leading space or '+' to skip), without the
// locale and errno overhead.
std::int64_t number_to_int64(std::string_view token, std::int64_t fallback) {
  std::int64_t v = 0;
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), last, v);
  if (ec != std::errc()) return fallback;
  // A fractional or exponent token ("1.5", "2e3") truncates its double value
  // toward zero; logs written by older tools depend on it.  A value outside
  // int64 ("1e30") does not fit, like an ERANGE integer: the cast would be
  // undefined.
  if (ptr != last && (*ptr == '.' || *ptr == 'e' || *ptr == 'E')) {
    const double d = number_to_double(token, static_cast<double>(fallback));
    if (!(d >= -0x1p63 && d < 0x1p63)) return fallback;
    return static_cast<std::int64_t>(d);
  }
  return v;
}

std::uint64_t number_to_uint64(std::string_view token, std::uint64_t fallback) {
  if (!token.empty() && token[0] == '-') return fallback;
  std::uint64_t v = 0;
  const char* last = token.data() + token.size();
  if (std::from_chars(token.data(), last, v).ec != std::errc()) return fallback;
  return v;
}

void append_double(std::string* out, double v) {
  // %.15g, widening to %.17g only when needed; to_chars with a precision is
  // specified as printf's %.*g, minus the locale and format parsing.
  char buf[40];
  char* end = buf;
  for (int prec = 15; prec <= 17; ++prec) {
    end = std::to_chars(buf, buf + sizeof(buf) - 1, v,
                        std::chars_format::general, prec).ptr;
    // Parse back as strtod would (from_chars rounds alike; it only declines
    // out-of-range text, which strtod still rounds).
    double back = 0;
    if (std::from_chars(buf, end, back).ec != std::errc()) {
      *end = '\0';
      back = std::strtod(buf, nullptr);
    }
    if (back == v) break;
  }
  out->append(buf, end);
}

std::string format_double(double v) {
  std::string out;
  append_double(&out, v);
  return out;
}

void append_escaped(std::string* out, std::string_view s) {
  *out += '"';
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        *out += buf;
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
  *out += '"';
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_escaped(&out, s);
  return out;
}

// ---------------------------------------------------------------- cursor

namespace {
constexpr int kMaxDepth = 64;

bool is_digit(char c) { return c >= '0' && c <= '9'; }
}  // namespace

Cursor::Cursor(const std::string& text, ParseError* err)
    : data_(text.c_str()), size_(text.size()), err_(err) {
  *err_ = ParseError{};
  skip_ws();
}

void Cursor::skip_ws() {
  for (;;) {
    const char c = data_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

bool Cursor::fail(const char* msg) {
  if (!err_->ok) return false;  // keep the first error
  err_->ok = false;
  // 1-based line and byte column of `pos_`: every byte before it was
  // consumed, so counting newlines now equals tracking them while scanning.
  int line = 1;
  std::size_t line_start = 0;
  for (std::size_t i = 0; i < pos_; ++i) {
    if (data_[i] == '\n') {
      ++line;
      line_start = i + 1;
    }
  }
  err_->line = line;
  err_->column = static_cast<int>(pos_ - line_start) + 1;
  err_->message = msg;
  return false;
}

bool Cursor::peek(Value::Kind* kind) {
  if (!ok()) return false;
  if (depth_ > kMaxDepth) return fail("nesting too deep");
  switch (cur()) {
    case '{': *kind = Value::Kind::kObject; return true;
    case '[': *kind = Value::Kind::kArray; return true;
    case '"': *kind = Value::Kind::kString; return true;
    case 't':
    case 'f': *kind = Value::Kind::kBool; return true;
    case 'n': *kind = Value::Kind::kNull; return true;
    case '\0': return fail("unexpected end of input");
    default: *kind = Value::Kind::kNumber; return true;
  }
}

bool Cursor::literal(const char* word) {
  const std::size_t n = std::strlen(word);
  if (size_ - pos_ < n || std::memcmp(data_ + pos_, word, n) != 0) {
    std::string msg = std::string("invalid literal (expected ") + word + ")";
    return fail(msg.c_str());
  }
  pos_ += n;
  return true;
}

bool Cursor::read_bool(bool* out) {
  if (!ok()) return false;
  *out = cur() == 't';
  return literal(*out ? "true" : "false");
}

bool Cursor::read_null() { return ok() && literal("null"); }

bool Cursor::read_string(std::string* out) {
  out->clear();
  return ok() && scan_string(out);
}

bool Cursor::scan_string(std::string* out) {
  ++pos_;  // '"'
  const std::size_t n = size_;
  for (;;) {
    // Copy the run of plain bytes up to the next quote, escape or control.
    const std::size_t run = pos_;
    while (pos_ < n) {
      const unsigned char c = static_cast<unsigned char>(data_[pos_]);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++pos_;
    }
    if (out != nullptr) out->append(data_ + run, pos_ - run);
    if (pos_ >= n) return fail("unterminated string");
    const char c = data_[pos_];
    if (c == '"') {
      ++pos_;
      return true;
    }
    if (c != '\\') return fail("unescaped control character in string");
    ++pos_;  // '\\'
    char decoded;
    switch (cur()) {
      case '"': decoded = '"'; break;
      case '\\': decoded = '\\'; break;
      case '/': decoded = '/'; break;
      case 'b': decoded = '\b'; break;
      case 'f': decoded = '\f'; break;
      case 'n': decoded = '\n'; break;
      case 'r': decoded = '\r'; break;
      case 't': decoded = '\t'; break;
      case 'u': {
        ++pos_;
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = cur();
          unsigned d;
          if (h >= '0' && h <= '9') d = static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') d = static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') d = static_cast<unsigned>(h - 'A' + 10);
          else return fail("invalid \\u escape");
          code = code * 16 + d;
          ++pos_;
        }
        if (out == nullptr) continue;
        // UTF-8 encode the code point (surrogate pairs are passed through
        // as two independent 3-byte sequences; record fields are ASCII).
        if (code < 0x80) {
          *out += static_cast<char>(code);
        } else if (code < 0x800) {
          *out += static_cast<char>(0xC0 | (code >> 6));
          *out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          *out += static_cast<char>(0xE0 | (code >> 12));
          *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          *out += static_cast<char>(0x80 | (code & 0x3F));
        }
        continue;
      }
      default:
        return fail("invalid escape character");
    }
    ++pos_;
    if (out != nullptr) *out += decoded;
  }
}

bool Cursor::read_number(std::string_view* token) {
  if (!ok()) return false;
  const std::size_t start = pos_;
  if (cur() == '-') ++pos_;
  if (!is_digit(cur())) return fail("invalid number");
  while (is_digit(cur())) ++pos_;
  if (cur() == '.') {
    ++pos_;
    if (!is_digit(cur())) return fail("digit expected after decimal point");
    while (is_digit(cur())) ++pos_;
  }
  if (cur() == 'e' || cur() == 'E') {
    ++pos_;
    if (cur() == '+' || cur() == '-') ++pos_;
    if (!is_digit(cur())) return fail("digit expected in exponent");
    while (is_digit(cur())) ++pos_;
  }
  *token = std::string_view(data_ + start, pos_ - start);
  return true;
}

void Cursor::enter_object() {
  ++depth_;
  ++pos_;  // '{'
  opened_ = true;
}

void Cursor::enter_array() {
  ++depth_;
  ++pos_;  // '['
  opened_ = true;
}

bool Cursor::close(char closer, const char* what) {
  if (cur() != closer) {
    std::string msg = std::string("expected ") + what;
    return fail(msg.c_str());
  }
  ++pos_;
  --depth_;
  return false;  // the container ended
}

bool Cursor::next_member(std::string* key) {
  if (!ok()) return false;
  skip_ws();
  if (opened_) {
    opened_ = false;
    if (cur() == '}') return close('}', "'}'");
  } else if (cur() == ',') {
    ++pos_;
    skip_ws();
  } else {
    return close('}', "',' or '}'");
  }
  if (cur() != '"') return fail("expected object key string");
  key->clear();
  if (!scan_string(key)) return false;
  skip_ws();
  if (cur() != ':') return fail("expected ':'");
  ++pos_;
  skip_ws();
  return true;
}

bool Cursor::next_item() {
  if (!ok()) return false;
  skip_ws();
  if (opened_) {
    opened_ = false;
    if (cur() == ']') return close(']', "']'");
  } else if (cur() == ',') {
    ++pos_;
    skip_ws();
  } else {
    return close(']', "',' or ']'");
  }
  return true;
}

bool Cursor::skip_value() {
  Value::Kind kind;
  if (!peek(&kind)) return false;
  switch (kind) {
    case Value::Kind::kObject: {
      enter_object();
      std::string key;
      while (next_member(&key)) {
        if (!skip_value()) return false;
      }
      return ok();
    }
    case Value::Kind::kArray:
      enter_array();
      while (next_item()) {
        if (!skip_value()) return false;
      }
      return ok();
    case Value::Kind::kString:
      return scan_string(nullptr);
    case Value::Kind::kBool: {
      bool b;
      return read_bool(&b);
    }
    case Value::Kind::kNull:
      return read_null();
    case Value::Kind::kNumber: {
      std::string_view token;
      return read_number(&token);
    }
  }
  return false;
}

bool Cursor::finish() {
  if (!ok()) return false;
  skip_ws();
  if (pos_ < size_) return fail("trailing content after JSON value");
  return true;
}

// ---------------------------------------------------------------- parse

namespace {

Value read_value(Cursor& c) {
  Value::Kind kind;
  if (!c.peek(&kind)) return Value();
  switch (kind) {
    case Value::Kind::kObject: {
      Value obj = Value::object();
      c.enter_object();
      std::string key;
      while (c.next_member(&key)) {
        Value v = read_value(c);
        if (!c.ok()) return Value();
        obj.set(key, std::move(v));
      }
      return obj;
    }
    case Value::Kind::kArray: {
      Value arr = Value::array();
      c.enter_array();
      while (c.next_item()) {
        Value v = read_value(c);
        if (!c.ok()) return Value();
        arr.push_back(std::move(v));
      }
      return arr;
    }
    case Value::Kind::kString: {
      std::string s;
      return c.read_string(&s) ? Value::string(std::move(s)) : Value();
    }
    case Value::Kind::kBool: {
      bool b = false;
      return c.read_bool(&b) ? Value::boolean(b) : Value();
    }
    case Value::Kind::kNull:
      c.read_null();
      return Value();
    case Value::Kind::kNumber: {
      std::string_view token;
      return c.read_number(&token) ? Value::number_raw(std::string(token))
                                   : Value();
    }
  }
  return Value();
}

}  // namespace

std::string ParseError::to_string() const {
  if (ok) return "ok";
  return "line " + std::to_string(line) + ", column " + std::to_string(column) +
         ": " + message;
}

Value parse(const std::string& text, ParseError* err) {
  ParseError local;
  if (err == nullptr) err = &local;
  Cursor c(text, err);
  Value v = read_value(c);
  if (!c.finish()) return Value();
  return v;
}

}  // namespace json
}  // namespace harl
