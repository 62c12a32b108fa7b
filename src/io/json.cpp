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

/// Scans a string body from `p`, just after its opening quote, up to its
/// closing quote, appending the decoded bytes to `*out` when `out` is not
/// null.  Returns where the scan stopped: at the closing quote, or at the
/// offending byte with `*error` set.  Bytes from `end` on read as NUL.
const char* scan_body(const char* p, const char* end, std::string* out,
                      const char** error) {
  auto at = [end](const char* q) { return q < end ? *q : '\0'; };
  for (;;) {
    // Copy the run of plain bytes up to the next quote, escape or control.
    const char* run = p;
    while (p < end) {
      const unsigned char c = static_cast<unsigned char>(*p);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++p;
    }
    if (out != nullptr) out->append(run, static_cast<std::size_t>(p - run));
    if (p >= end) {
      *error = "unterminated string";
      return p;
    }
    if (*p == '"') return p;
    if (*p != '\\') {
      *error = "unescaped control character in string";
      return p;
    }
    ++p;  // '\\'
    char decoded;
    switch (at(p)) {
      case '"': decoded = '"'; break;
      case '\\': decoded = '\\'; break;
      case '/': decoded = '/'; break;
      case 'b': decoded = '\b'; break;
      case 'f': decoded = '\f'; break;
      case 'n': decoded = '\n'; break;
      case 'r': decoded = '\r'; break;
      case 't': decoded = '\t'; break;
      case 'u': {
        ++p;
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = at(p);
          unsigned d;
          if (h >= '0' && h <= '9') d = static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') d = static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') d = static_cast<unsigned>(h - 'A' + 10);
          else {
            *error = "invalid \\u escape";
            return p;
          }
          code = code * 16 + d;
          ++p;
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
        *error = "invalid escape character";
        return p;
    }
    ++p;
    if (out != nullptr) *out += decoded;
  }
}
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

bool Cursor::peek(Kind* kind) {
  if (!ok()) return false;
  if (depth_ > kMaxDepth) return fail("nesting too deep");
  switch (cur()) {
    case '{': *kind = Kind::kObject; return true;
    case '[': *kind = Kind::kArray; return true;
    case '"': *kind = Kind::kString; return true;
    case 't':
    case 'f': *kind = Kind::kBool; return true;
    case 'n': *kind = Kind::kNull; return true;
    case '\0': return fail("unexpected end of input");
    default: *kind = Kind::kNumber; return true;
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
  return ok() && scan_string(nullptr, out);
}

bool Cursor::read_token(Kind kind, std::string_view* token) {
  if (kind == Kind::kString) return ok() && scan_string(token, nullptr);
  if (kind == Kind::kNumber) return read_number(token);
  const std::size_t start = pos_;
  if (!skip_value()) return false;
  *token = std::string_view(data_ + start, pos_ - start);
  return true;
}

bool Cursor::scan_string(std::string_view* body, std::string* out) {
  const char* start = data_ + pos_ + 1;  // after '"'
  const char* error = nullptr;
  const char* stop = scan_body(start, data_ + size_, out, &error);
  pos_ = static_cast<std::size_t>(stop - data_);
  if (error != nullptr) return fail(error);
  if (body != nullptr) *body = std::string_view(start, static_cast<std::size_t>(stop - start));
  ++pos_;  // '"'
  return true;
}

void append_unescaped(std::string* out, std::string_view body) {
  // A validated body without a backslash holds its bytes verbatim.
  if (body.find('\\') == std::string_view::npos) {
    out->append(body);
    return;
  }
  const char* error = nullptr;  // the body ends before its closing quote
  scan_body(body.data(), body.data() + body.size(), out, &error);
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
  if (!scan_string(nullptr, key)) return false;
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
  Kind kind;
  if (!peek(&kind)) return false;
  switch (kind) {
    case Kind::kObject: {
      enter_object();
      std::string key;
      while (next_member(&key)) {
        if (!skip_value()) return false;
      }
      return ok();
    }
    case Kind::kArray:
      enter_array();
      while (next_item()) {
        if (!skip_value()) return false;
      }
      return ok();
    case Kind::kString:
      return scan_string(nullptr, nullptr);
    case Kind::kBool: {
      bool b;
      return read_bool(&b);
    }
    case Kind::kNull:
      return read_null();
    case Kind::kNumber: {
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

std::string ParseError::to_string() const {
  if (ok) return "ok";
  return "line " + std::to_string(line) + ", column " + std::to_string(column) +
         ": " + message;
}

}  // namespace json
}  // namespace harl
