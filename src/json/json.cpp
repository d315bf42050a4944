#include "json/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace catalyst::json {

// --- accessors -----------------------------------------------------------------

namespace {

[[noreturn]] void wrong_type(const char* want, Value::Type got) {
  static const char* names[] = {"null", "boolean", "number",
                                "string", "array", "object"};
  throw JsonError(std::string("expected ") + want + ", value is " +
                  names[static_cast<int>(got)]);
}

// The double holds exactly an integer of the target type.  Both bounds
// are powers of two, so they are exact as doubles; NaN fails every test.
bool exact_u64(double x, std::uint64_t& out) {
  if (!(x >= 0.0 && x < 18446744073709551616.0 && x == std::floor(x))) {
    return false;
  }
  out = static_cast<std::uint64_t>(x);
  return true;
}

bool exact_i64(double x, std::int64_t& out) {
  if (!(x >= -9223372036854775808.0 && x < 9223372036854775808.0 &&
        x == std::floor(x))) {
    return false;
  }
  out = static_cast<std::int64_t>(x);
  return true;
}

}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::boolean) wrong_type("boolean", type_);
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::number) wrong_type("number", type_);
  switch (repr_) {
    case Repr::u64: return static_cast<double>(u64_);
    case Repr::i64: return static_cast<double>(i64_);
    case Repr::real: break;
  }
  return num_;
}

std::uint64_t Value::as_u64() const {
  if (type_ != Type::number) wrong_type("number", type_);
  std::uint64_t out = 0;
  if (repr_ == Repr::u64) return u64_;
  if (repr_ == Repr::real && exact_u64(num_, out)) return out;
  throw JsonError("expected an unsigned 64-bit integer, number is " +
                  dump(*this));
}

std::int64_t Value::as_i64() const {
  if (type_ != Type::number) wrong_type("number", type_);
  std::int64_t out = 0;
  if (repr_ == Repr::i64) return i64_;
  if (repr_ == Repr::u64 && u64_ <= static_cast<std::uint64_t>(INT64_MAX)) {
    return static_cast<std::int64_t>(u64_);
  }
  if (repr_ == Repr::real && exact_i64(num_, out)) return out;
  throw JsonError("expected a signed 64-bit integer, number is " +
                  dump(*this));
}

const std::string& Value::as_string() const {
  if (type_ != Type::string) wrong_type("string", type_);
  return str_;
}

const std::vector<Value>& Value::as_array() const {
  if (type_ != Type::array) wrong_type("array", type_);
  return arr_;
}

const std::map<std::string, Value>& Value::as_object() const {
  if (type_ != Type::object) wrong_type("object", type_);
  return obj_;
}

void Value::push_back(Value v) {
  if (type_ != Type::array) wrong_type("array", type_);
  arr_.push_back(std::move(v));
}

const Value& Value::at(std::size_t i) const {
  if (type_ != Type::array) wrong_type("array", type_);
  if (i >= arr_.size()) throw JsonError("array index out of range");
  return arr_[i];
}

std::size_t Value::size() const {
  if (type_ == Type::array) return arr_.size();
  if (type_ == Type::object) return obj_.size();
  wrong_type("array or object", type_);
}

Value& Value::operator[](const std::string& key) {
  if (type_ == Type::null) type_ = Type::object;  // convenient building
  if (type_ != Type::object) wrong_type("object", type_);
  return obj_[key];
}

const Value& Value::at(const std::string& key) const {
  if (type_ != Type::object) wrong_type("object", type_);
  auto it = obj_.find(key);
  if (it == obj_.end()) throw JsonError("missing key: " + key);
  return it->second;
}

bool Value::contains(const std::string& key) const {
  return type_ == Type::object && obj_.count(key) > 0;
}

bool operator==(const Value& a, const Value& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Value::Type::null: return true;
    case Value::Type::boolean: return a.bool_ == b.bool_;
    case Value::Type::number: {
      using Repr = Value::Repr;
      if (a.repr_ == b.repr_) {
        switch (a.repr_) {
          case Repr::real: return a.num_ == b.num_;
          case Repr::u64: return a.u64_ == b.u64_;
          case Repr::i64: return a.i64_ == b.i64_;
        }
      }
      // Mixed: an integer equals a double only when the double holds
      // exactly that integer (u64 vs i64 never meet: their signs differ).
      const Value& real = a.repr_ == Repr::real ? a : b;
      const Value& integer = a.repr_ == Repr::real ? b : a;
      std::uint64_t u = 0;
      std::int64_t i = 0;
      if (real.repr_ != Repr::real) return false;
      return integer.repr_ == Repr::u64
                 ? exact_u64(real.num_, u) && u == integer.u64_
                 : exact_i64(real.num_, i) && i == integer.i64_;
    }
    case Value::Type::string: return a.str_ == b.str_;
    case Value::Type::array: return a.arr_ == b.arr_;
    case Value::Type::object: return a.obj_ == b.obj_;
  }
  return false;
}

// --- parser ---------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError(why + " at byte offset " + std::to_string(pos_), pos_);
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (advance() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (literal("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (literal("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (literal("null")) return Value(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = advance();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control char in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = advance();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // ASCII-only \u escapes; everything else is rejected loudly
          // rather than silently mangled.
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = advance();
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += 10u + static_cast<unsigned>(h - 'a');
            else if (h >= 'A' && h <= 'F') code += 10u + static_cast<unsigned>(h - 'A');
            else fail("bad \\u escape");
          }
          if (code > 0x7F) fail("non-ASCII \\u escapes are unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      if (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E') {
        integral = false;
      }
      ++pos_;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    // An integer token that fits in 64 bits stays exact; one that does not
    // (or is malformed) goes through the double parse below.
    if (integral && *first == '-') {
      std::int64_t n = 0;
      const auto [ptr, ec] = std::from_chars(first, last, n);
      if (ec == std::errc{} && ptr == last) return Value(n);
    } else if (integral) {
      std::uint64_t n = 0;
      const auto [ptr, ec] = std::from_chars(first, last, n);
      if (ec == std::errc{} && ptr == last) return Value(n);
    }
    double out = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec != std::errc{} || ptr != last || pos_ == start) {
      pos_ = start;
      fail("bad number");
    }
    return Value(out);
  }

  Value parse_array() {
    expect('[');
    Value out = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push_back(parse_value());
      skip_ws();
      const char c = advance();
      if (c == ']') return out;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
    }
  }

  Value parse_object() {
    expect('{');
    Value out = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out[key] = parse_value();
      skip_ws();
      const char c = advance();
      if (c == '}') return out;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse_document(); }

// --- writer ---------------------------------------------------------------------

struct Value::Writer {
  static void string(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

  static void number(std::string& out, const Value& v) {
    char buf[32];
    if (v.repr_ != Repr::real) {
      const auto [end, ec] =
          v.repr_ == Repr::u64 ? std::to_chars(buf, buf + sizeof buf, v.u64_)
                               : std::to_chars(buf, buf + sizeof buf, v.i64_);
      out.append(buf, end);
      return;
    }
    const double x = v.num_;
    if (!std::isfinite(x)) {
      throw JsonError("cannot serialize non-finite number");
    }
    if (x == std::floor(x) && std::fabs(x) < 1e15) {
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf,
                                           static_cast<long long>(x));
      out.append(buf, end);
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", x);
      out += buf;
    }
  }

  static void value(std::string& out, const Value& v, int indent, int depth) {
    const std::string pad =
        indent > 0
            ? "\n" + std::string(static_cast<std::size_t>(indent) *
                                     (static_cast<std::size_t>(depth) + 1),
                                 ' ')
            : "";
    const std::string pad_close =
        indent > 0 ? "\n" + std::string(static_cast<std::size_t>(indent) *
                                            static_cast<std::size_t>(depth),
                                        ' ')
                   : "";
    switch (v.type_) {
      case Type::null: out += "null"; break;
      case Type::boolean: out += v.bool_ ? "true" : "false"; break;
      case Type::number: number(out, v); break;
      case Type::string: string(out, v.str_); break;
      case Type::array: {
        if (v.arr_.empty()) {
          out += "[]";
          break;
        }
        out += '[';
        for (std::size_t i = 0; i < v.arr_.size(); ++i) {
          if (i > 0) out += ',';
          out += pad;
          value(out, v.arr_[i], indent, depth + 1);
        }
        out += pad_close;
        out += ']';
        break;
      }
      case Type::object: {
        if (v.obj_.empty()) {
          out += "{}";
          break;
        }
        out += '{';
        bool first = true;
        for (const auto& [key, val] : v.obj_) {
          if (!first) out += ',';
          out += pad;
          string(out, key);
          out += indent > 0 ? ": " : ":";
          value(out, val, indent, depth + 1);
          first = false;
        }
        out += pad_close;
        out += '}';
        break;
      }
    }
  }
};

std::string dump(const Value& value, int indent) {
  std::string out;
  Value::Writer::value(out, value, indent, 0);
  return out;
}

}  // namespace catalyst::json
