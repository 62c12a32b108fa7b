#include "support/json_dom.hpp"

#include <cctype>
#include <cstdio>
#include <cstring>

namespace harl {
namespace ref {

using json::ParseError;

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

Value Value::number(double v) { return number_raw(json::format_double(v)); }

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
  return kind_ == Kind::kNumber ? json::number_to_double(str_, fallback) : fallback;
}

std::int64_t Value::as_int64(std::int64_t fallback) const {
  return kind_ == Kind::kNumber ? json::number_to_int64(str_, fallback) : fallback;
}

std::uint64_t Value::as_uint64(std::uint64_t fallback) const {
  return kind_ == Kind::kNumber ? json::number_to_uint64(str_, fallback) : fallback;
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
      json::append_escaped(out, str_);
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
        json::append_escaped(out, members_[i].first);
        *out += ':';
        members_[i].second.dump_to(out);
      }
      *out += '}';
      return;
  }
}

// ---------------------------------------------------------------- reference

std::string escape(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

std::string dump(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kBool: return v.as_bool() ? "true" : "false";
    case Value::Kind::kNumber: return v.raw_number();
    case Value::Kind::kString: return escape(v.as_string());
    case Value::Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.items().size(); ++i) {
        if (i) out += ',';
        out += dump(v.items()[i]);
      }
      return out + "]";
    }
    case Value::Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < v.members().size(); ++i) {
        if (i) out += ',';
        out += escape(v.members()[i].first) + ":" + dump(v.members()[i].second);
      }
      return out + "}";
    }
  }
  return "null";
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, ParseError* err) : text_(text), err_(err) {}

  Value run() {
    skip_ws();
    Value v = parse_value();
    if (!err_->ok) return Value();
    skip_ws();
    if (pos_ < text_.size()) {
      fail("trailing content after JSON value");
      return Value();
    }
    return v;
  }

 private:
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool at_end() const { return pos_ >= text_.size(); }

  void advance() {
    if (pos_ >= text_.size()) return;
    if (text_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void skip_ws() {
    while (!at_end() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                         peek() == '\r')) {
      advance();
    }
  }

  void fail(const std::string& msg) {
    if (!err_->ok) return;
    err_->ok = false;
    err_->line = line_;
    err_->column = col_;
    err_->message = msg;
  }

  bool expect(char c, const char* what) {
    if (peek() != c) {
      fail(std::string("expected ") + what);
      return false;
    }
    advance();
    return true;
  }

  bool literal(const char* word) {
    std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) {
      fail(std::string("invalid literal (expected ") + word + ")");
      return false;
    }
    for (std::size_t i = 0; i < n; ++i) advance();
    return true;
  }

  Value parse_value() {
    if (depth_ > 64) {
      fail("nesting too deep");
      return Value();
    }
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't': return literal("true") ? Value::boolean(true) : Value();
      case 'f': return literal("false") ? Value::boolean(false) : Value();
      case 'n': return literal("null") ? Value::null() : Value();
      case '\0':
        fail("unexpected end of input");
        return Value();
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    ++depth_;
    Value obj = Value::object();
    advance();
    skip_ws();
    if (peek() == '}') {
      advance();
      --depth_;
      return obj;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') {
        fail("expected object key string");
        return Value();
      }
      Value key = parse_string();
      if (!err_->ok) return Value();
      skip_ws();
      if (!expect(':', "':'")) return Value();
      skip_ws();
      Value v = parse_value();
      if (!err_->ok) return Value();
      obj.set(key.as_string(), std::move(v));
      skip_ws();
      if (peek() == ',') {
        advance();
        continue;
      }
      if (!expect('}', "',' or '}'")) return Value();
      break;
    }
    --depth_;
    return obj;
  }

  Value parse_array() {
    ++depth_;
    Value arr = Value::array();
    advance();
    skip_ws();
    if (peek() == ']') {
      advance();
      --depth_;
      return arr;
    }
    for (;;) {
      skip_ws();
      Value v = parse_value();
      if (!err_->ok) return Value();
      arr.push_back(std::move(v));
      skip_ws();
      if (peek() == ',') {
        advance();
        continue;
      }
      if (!expect(']', "',' or ']'")) return Value();
      break;
    }
    --depth_;
    return arr;
  }

  Value parse_string() {
    advance();
    std::string out;
    for (;;) {
      if (at_end()) {
        fail("unterminated string");
        return Value();
      }
      char c = peek();
      if (c == '"') {
        advance();
        return Value::string(std::move(out));
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return Value();
      }
      if (c != '\\') {
        out += c;
        advance();
        continue;
      }
      advance();
      switch (peek()) {
        case '"': out += '"'; advance(); break;
        case '\\': out += '\\'; advance(); break;
        case '/': out += '/'; advance(); break;
        case 'b': out += '\b'; advance(); break;
        case 'f': out += '\f'; advance(); break;
        case 'n': out += '\n'; advance(); break;
        case 'r': out += '\r'; advance(); break;
        case 't': out += '\t'; advance(); break;
        case 'u': {
          advance();
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = peek();
            unsigned d;
            if (h >= '0' && h <= '9') d = static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') d = static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') d = static_cast<unsigned>(h - 'A' + 10);
            else {
              fail("invalid \\u escape");
              return Value();
            }
            code = code * 16 + d;
            advance();
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape character");
          return Value();
      }
    }
  }

  Value parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') advance();
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      fail("invalid number");
      return Value();
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
    if (peek() == '.') {
      advance();
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit expected after decimal point");
        return Value();
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
    }
    if (peek() == 'e' || peek() == 'E') {
      advance();
      if (peek() == '+' || peek() == '-') advance();
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit expected in exponent");
        return Value();
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
    }
    return Value::number_raw(text_.substr(start, pos_ - start));
  }

  const std::string& text_;
  ParseError* err_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  int depth_ = 0;
};

}  // namespace

Value parse(const std::string& text, ParseError* err) {
  *err = ParseError{};
  Value v = Parser(text, err).run();
  return err->ok ? v : Value();
}

}  // namespace ref
}  // namespace harl
