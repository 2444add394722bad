// Minimal ordered JSON document: build, dump, parse.
//
// The observability layer (src/obs) serializes traces, metrics and run
// reports through this type, and tests parse them back to assert on
// structure. Objects preserve insertion order so emitted documents diff
// cleanly across runs. Integers are kept exact (no silent promotion to
// double), which matters for 64-bit event counters.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace cosparse {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() = default;  ///< null
  Json(std::nullptr_t) {}
  Json(bool b) : v_(b) {}
  Json(int v) : v_(static_cast<std::int64_t>(v)) {}
  Json(unsigned v) : v_(static_cast<std::int64_t>(v)) {}
  Json(long v) : v_(static_cast<std::int64_t>(v)) {}
  Json(long long v) : v_(static_cast<std::int64_t>(v)) {}
  Json(unsigned long v);
  Json(unsigned long long v);
  Json(double v) : v_(v) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(std::string_view s) : v_(std::string(s)) {}

  static Json array() {
    Json j;
    j.v_ = Array{};
    return j;
  }
  static Json object() {
    Json j;
    j.v_ = Object{};
    return j;
  }

  [[nodiscard]] Type type() const;
  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const {
    return type() == Type::kInt || type() == Type::kDouble;
  }
  /// kInt, or a kDouble holding an integer in the int64_t range: exactly
  /// the values as_int() accepts.
  [[nodiscard]] bool is_integer() const;
  [[nodiscard]] bool is_string() const { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type() == Type::kObject; }

  // ---- building ----
  /// Object member access; creates the member (null) on a mutable object.
  /// Turns a null value into an object on first use.
  Json& operator[](std::string_view key);
  /// Appends to an array (turns a null value into an array on first use).
  Json& push_back(Json v);

  // ---- reading ----
  /// Member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Array/object arity; 0 for scalars.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Json& at(std::size_t i) const;  ///< array element
  [[nodiscard]] const Array& items() const;
  [[nodiscard]] const Object& members() const;

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;    ///< kInt or integral kDouble
  [[nodiscard]] double as_double() const;       ///< any number
  [[nodiscard]] const std::string& as_string() const;

  // ---- text ----
  /// Compact when indent < 0, pretty-printed otherwise.
  [[nodiscard]] std::string dump(int indent = -1) const;
  /// Deepest array/object nesting parse() accepts. The parser recurses
  /// once per level, so the bound keeps hostile input off the stack.
  static constexpr int kMaxDepth = 256;

  /// Throws cosparse::Error on malformed input, trailing garbage, or
  /// nesting deeper than kMaxDepth.
  static Json parse(std::string_view text);

 private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string, Array,
               Object>
      v_;
};

}  // namespace cosparse
