// Typed readers shared by the serve_config field table (serve/config.cpp)
// and the request parser (serve/request.cpp), so both documents accept or
// reject a value with the same words. A reader fills `slot` only when the
// value fits, and returns why it does not ("must be an integer") or "".
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.h"

namespace cosparse::serve {

/// Non-negative integer that fits T.
template <class T>
  requires std::is_unsigned_v<T>
[[nodiscard]] std::string_view read_json(const Json& v, T& slot) {
  if (v.type() != Json::Type::kInt) return "must be an integer";
  const std::int64_t raw = v.as_int();
  if (raw < 0) return "must be >= 0";
  if (static_cast<std::uint64_t>(raw) > std::numeric_limits<T>::max())
    return "is out of range";
  slot = static_cast<T>(raw);
  return {};
}

[[nodiscard]] inline std::string_view read_json(const Json& v, double& slot) {
  if (!v.is_number()) return "must be a number";
  slot = v.as_double();
  return {};
}

[[nodiscard]] inline std::string_view read_json(const Json& v,
                                                std::string& slot) {
  if (!v.is_string()) return "must be a string";
  slot = v.as_string();
  return {};
}

[[nodiscard]] inline std::string_view read_json(
    const Json& v, std::vector<std::string>& slot) {
  constexpr std::string_view kWhy = "must be an array of strings";
  if (!v.is_array()) return kWhy;
  std::vector<std::string> items;
  for (const Json& item : v.items()) {
    if (!item.is_string()) return kWhy;
    items.push_back(item.as_string());
  }
  slot = std::move(items);
  return {};
}

}  // namespace cosparse::serve
