// catalyst/json -- a minimal JSON value, parser, and writer.
//
// Every JSON artifact the project writes or reads goes through this one
// library: measurement archives and checkpoints (core/io.hpp), PAPI preset
// tables, and the obs documents (Chrome traces, run manifests, metrics
// expositions, flight-recorder dumps) -- so that external tooling
// (plotting scripts, PAPI importers, trace viewers) can consume them.  It
// is a leaf library: obs and core both sit on top of it.
//
// The subset implemented is complete standard JSON except for \u escapes
// beyond ASCII (rejected explicitly).  Numbers are either doubles or exact
// 64-bit integers: counters, *_ns stamps and client-chosen ids keep every
// bit past 2^53.  Objects keep their keys sorted, so output is canonical.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace catalyst::json {

/// Thrown on malformed input or wrong-type access.  Parse failures carry
/// the byte offset of the offending input position; errors raised outside
/// the parser (type mismatches, missing keys) report npos.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what,
                     std::size_t offset = std::string::npos)
      : std::runtime_error(what), offset_(offset) {}

  std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// A JSON value (tagged union over the six JSON shapes).
class Value {
 public:
  enum class Type { null, boolean, number, string, array, object };

  Value() : type_(Type::null) {}
  Value(std::nullptr_t) : type_(Type::null) {}  // NOLINT(runtime/explicit)
  Value(bool b) : type_(Type::boolean), bool_(b) {}  // NOLINT
  Value(double n) : type_(Type::number), num_(n) {}  // NOLINT
  /// Any integer type keeps its exact value (not rounded to a double).
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Value(T n) : type_(Type::number) {  // NOLINT
    if constexpr (std::is_signed_v<T>) {
      set_integer(static_cast<std::int64_t>(n));
    } else {
      repr_ = Repr::u64;
      u64_ = static_cast<std::uint64_t>(n);
    }
  }
  Value(const char* s) : type_(Type::string), str_(s) {}  // NOLINT
  Value(std::string s) : type_(Type::string), str_(std::move(s)) {}  // NOLINT

  static Value array() {
    Value v;
    v.type_ = Type::array;
    return v;
  }
  static Value object() {
    Value v;
    v.type_ = Type::object;
    return v;
  }

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::null; }
  bool is_bool() const noexcept { return type_ == Type::boolean; }
  bool is_number() const noexcept { return type_ == Type::number; }
  bool is_string() const noexcept { return type_ == Type::string; }
  bool is_array() const noexcept { return type_ == Type::array; }
  bool is_object() const noexcept { return type_ == Type::object; }

  // Checked accessors (throw JsonError on type mismatch).
  bool as_bool() const;
  /// Any number, converted to double (an integer past 2^53 rounds).
  double as_number() const;
  /// The number as an exact integer: throws JsonError unless it is an
  /// integer in range (5.0 is accepted; -1, 2.5 and 1e300 are not for u64).
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;
  const std::map<std::string, Value>& as_object() const;

  // Array building / access.
  void push_back(Value v);
  const Value& at(std::size_t i) const;
  std::size_t size() const;

  // Object building / access.
  Value& operator[](const std::string& key);
  const Value& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  /// Structural equality; numbers compare by numeric value, so 5 == 5.0.
  friend bool operator==(const Value& a, const Value& b);

 private:
  struct Writer;  // json.cpp
  friend std::string dump(const Value& value, int indent);

  /// How a number is held: a double, a non-negative integer, or a
  /// negative integer (every integer >= 0 is held as u64).
  enum class Repr : unsigned char { real, u64, i64 };

  void set_integer(std::int64_t n) {
    if (n >= 0) {
      repr_ = Repr::u64;
      u64_ = static_cast<std::uint64_t>(n);
    } else {
      repr_ = Repr::i64;
      i64_ = n;
    }
  }

  Type type_;
  Repr repr_ = Repr::real;
  bool bool_ = false;
  union {
    double num_ = 0.0;
    std::uint64_t u64_;
    std::int64_t i64_;
  };
  std::string str_;
  std::vector<Value> arr_;
  std::map<std::string, Value> obj_;
};

/// Parses a complete JSON document (trailing garbage is an error).  An
/// integer token (no '.', 'e' or 'E') that fits in 64 bits is kept exact.
Value parse(const std::string& text);

/// Serializes compactly; `indent` > 0 pretty-prints with that many spaces.
/// Integers print exactly; a double prints bare when it is integral and
/// below 1e15 in magnitude, otherwise with 17 significant digits.
/// Throws JsonError on a non-finite double.
std::string dump(const Value& value, int indent = 0);

}  // namespace catalyst::json
