// Order-sensitive FNV-1a-64 digests of numeric result vectors.
//
// Examples stamp these into their report's "results" section so two runs
// can be compared for *bitwise* result equality without embedding every
// value: the digest folds in each element's IEEE-754 bit pattern, so any
// single-ulp divergence changes it. This is the instrument behind the
// sim-vs-native byte-compare gates (DESIGN.md §14).
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace cosparse {

class Digest {
 public:
  void update_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void update_index(Index i) { update_u64(i); }
  void update_value(Value v) { update_u64(std::bit_cast<std::uint64_t>(v)); }

  [[nodiscard]] std::uint64_t value() const { return hash_; }
  /// 16 lowercase hex digits (JSON-friendly: u64 exceeds exact double
  /// range, so the digest travels as a string).
  [[nodiscard]] std::string hex() const {
    static const char* kDigits = "0123456789abcdef";
    std::string s(16, '0');
    for (std::size_t i = 0; i < 16; ++i) {
      s[15 - i] = kDigits[(hash_ >> (4 * i)) & 0xfU];
    }
    return s;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  ///< FNV-1a offset basis
};

}  // namespace cosparse
