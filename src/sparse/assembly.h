// Matrix-assembly internals of the sparse module (not part of its public
// interface).
//
// Stand-in generation is rejection sampling over 64-bit coordinate keys
// followed by one Coo canonicalization. FlatKeySet is the one membership
// structure behind every rejection loop; the raw generators hand their
// distinct, unsorted triplets to callers that post-process them (fold,
// top up, mirror) before the single canonicalizing Coo construction.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sparse/formats.h"
#include "sparse/generate.h"

namespace cosparse::sparse {

/// The 64-bit key of a coordinate. Never FlatKeySet::kEmpty: row and col
/// are below 2^32 - 1 in every matrix (a dimension is at most 2^32 - 1).
inline std::uint64_t pack(Index row, Index col) {
  return (static_cast<std::uint64_t>(row) << 32) | col;
}

/// Open-addressing set of 64-bit keys: linear probing over a power-of-two
/// table kept at most half full, Fibonacci-hashed home slots. The all-ones
/// key marks a free slot and must not be inserted.
class FlatKeySet {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// Sized so that `expected` insertions never grow the table.
  explicit FlatKeySet(std::size_t expected = 0) {
    std::size_t capacity = 16;
    while (capacity < 2 * expected) capacity *= 2;
    rehash(capacity);
  }

  /// Adds `key`; true if it was not already present.
  bool insert(std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) rehash(slots_.size() * 2);
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i] == key) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = key;
        ++size_;
        return true;
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void rehash(std::size_t capacity) {
    std::vector<std::uint64_t> old(capacity, kEmpty);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    size_ = 0;
    for (std::uint64_t key : old) {
      if (key != kEmpty) insert(key);
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

/// The distinct triplets behind uniform_random(), in draw order.
std::vector<Triplet> uniform_triplets(Index rows, Index cols,
                                      std::uint64_t nnz, std::uint64_t seed,
                                      ValueDist dist);

/// The distinct triplets behind rmat(), in draw order.
std::vector<Triplet> rmat_triplets(std::uint32_t scale, std::uint64_t nnz,
                                   double a, double b, double c,
                                   std::uint64_t seed, ValueDist dist);

}  // namespace cosparse::sparse
