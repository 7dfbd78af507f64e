#pragma once
// Minimal JSON value model, writer and parser.
//
// The METRICS system (Section 4 / Fig. 11 of the paper) encodes design-process
// records for transmission and persistence; the paper's original system used
// XML + Enterprise Java Beans, and explicitly notes that "reimplementing
// METRICS with today's commodity ... technologies will be much simpler". We
// use JSON as that commodity encoding. The parser accepts the subset of JSON
// that the writer emits (objects, arrays, strings, numbers, bools, null).
//
// Writer byte contract. WAL lines, metrics frames, cache replies and the
// golden digests all hash or compare these bytes, so they never change:
//   * no whitespace; object keys in std::map (byte-wise) order;
//   * a number that is integral with |x| < 1e15 prints as an int64 ("-0.0"
//     prints "0"); any other finite number prints like printf("%.17g");
//     NaN and infinities print "null";
//   * strings escape '"' '\\' '\n' '\r' '\t' by backslash and other bytes
//     below 0x20 as \u00xx (lower-case hex); every other byte, UTF-8 or not,
//     is copied through;
//   * parse(dump(x)) dumps to the same bytes as dump(x).
// dump_to() appends to one caller-owned buffer (numbers via std::to_chars);
// dump() is dump_to() into a fresh string.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace maestro::util {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json, std::less<>>;

/// A JSON value: null, bool, number (double), string, array or object.
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double d) : type_(Type::Number), num_(d) {}
  Json(int i) : type_(Type::Number), num_(i) {}
  Json(std::int64_t i) : type_(Type::Number), num_(static_cast<double>(i)) {}
  Json(std::size_t i) : type_(Type::Number), num_(static_cast<double>(i)) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Json(JsonArray a) : type_(Type::Array), arr_(std::move(a)) {}
  Json(JsonObject o) : type_(Type::Object), obj_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_object() const { return type_ == Type::Object; }
  bool is_array() const { return type_ == Type::Array; }

  bool as_bool(bool fallback = false) const { return type_ == Type::Bool ? bool_ : fallback; }
  double as_number(double fallback = 0.0) const { return type_ == Type::Number ? num_ : fallback; }
  /// The number as an exact unsigned integer: nullopt unless this is a
  /// finite, integral number in [0, 2^64). Ids, counts and sizes read from
  /// untrusted bytes (a socket, a WAL, a checkpoint) go through this — a
  /// static_cast of a NaN, negative or too-large double is undefined.
  std::optional<std::uint64_t> as_uint() const;
  const std::string& as_string() const { return str_; }
  const JsonArray& as_array() const { return arr_; }
  const JsonObject& as_object() const { return obj_; }
  JsonArray& as_array() { return arr_; }
  JsonObject& as_object() { return obj_; }

  /// Object field access; returns null Json for missing keys or non-objects.
  const Json& at(std::string_view key) const;

  /// Serialize to a compact JSON string (see the byte contract above).
  std::string dump() const;
  /// Append the same bytes as dump() to `out`.
  void dump_to(std::string& out) const;

  /// Deepest container nesting parse() accepts.
  static constexpr std::size_t kMaxParseDepth = 256;

  /// Parse a JSON document. Returns nullopt on malformed input, including
  /// containers nested deeper than kMaxParseDepth.
  static std::optional<Json> parse(std::string_view text);

 private:
  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  JsonArray arr_;
  JsonObject obj_;
};

/// Escape a string for inclusion in JSON output (adds surrounding quotes).
std::string json_escape(std::string_view s);

/// A whole decimal uint64: nullopt for "", a sign, any non-digit and values
/// of 2^64 or more. 64-bit ids and seeds travel in JSON as such strings,
/// since a JSON double cannot hold them.
std::optional<std::uint64_t> parse_u64(std::string_view s);

/// A run id or seed field: a string must pass parse_u64, a number (as older
/// writers stored them) must be an exact unsigned integer (Json::as_uint);
/// otherwise nullopt. A missing (or non-number, non-string) field reads as 0.
std::optional<std::uint64_t> id_from_json(const Json& j);

}  // namespace maestro::util
