#include "sparse/serialize.h"

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.h"

namespace cosparse::sparse {
namespace {

constexpr std::uint64_t kMagic = 0x434F53'50415253ULL;  // "COSPARS"
constexpr std::uint32_t kVersion = 1;

// FNV-1a over the triplet payload: cheap, order-sensitive, good enough to
// catch truncation and bit rot.
std::uint64_t checksum(const std::vector<Triplet>& triplets) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& t : triplets) {
    mix(&t.row, sizeof(t.row));
    mix(&t.col, sizeof(t.col));
    mix(&t.value, sizeof(t.value));
  }
  return h;
}

template <class T>
void put(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <class T>
T get(std::ifstream& in, const std::string& path) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw Error(path + ": truncated matrix file");
  return v;
}

}  // namespace

void write_binary(const std::string& path, const Coo& coo) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open for writing: " + path);
  put(out, kMagic);
  put(out, kVersion);
  put(out, coo.rows());
  put(out, coo.cols());
  put(out, static_cast<std::uint64_t>(coo.nnz()));
  for (const auto& t : coo.triplets()) {
    put(out, t.row);
    put(out, t.col);
    put(out, t.value);
  }
  put(out, checksum(coo.triplets()));
  if (!out) throw Error("error writing: " + path);
}

Coo read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open matrix file: " + path);
  if (get<std::uint64_t>(in, path) != kMagic) {
    throw Error(path + ": not a CoSPARSE binary matrix (bad magic)");
  }
  if (get<std::uint32_t>(in, path) != kVersion) {
    throw Error(path + ": unsupported matrix file version");
  }
  const auto rows = get<Index>(in, path);
  const auto cols = get<Index>(in, path);
  const auto nnz = get<std::uint64_t>(in, path);
  // Check the declared count against the file before allocating for it: a
  // corrupt header must be an Error, not a huge allocation.
  const auto payload_start = in.tellg();
  in.seekg(0, std::ios::end);
  const auto payload_bytes =
      static_cast<std::uint64_t>(in.tellg() - payload_start);
  in.seekg(payload_start);
  constexpr std::uint64_t kTripletBytes =
      sizeof(Index) + sizeof(Index) + sizeof(Value);
  if (!in || nnz > payload_bytes / kTripletBytes) {
    throw Error(path + ": declared nnz " + std::to_string(nnz) +
                " exceeds the file size (corrupt matrix file)");
  }
  std::vector<Triplet> triplets;
  triplets.reserve(nnz);
  for (std::uint64_t i = 0; i < nnz; ++i) {
    Triplet t;
    t.row = get<Index>(in, path);
    t.col = get<Index>(in, path);
    t.value = get<Value>(in, path);
    triplets.push_back(t);
  }
  const auto stored = get<std::uint64_t>(in, path);
  if (stored != checksum(triplets)) {
    throw Error(path + ": checksum mismatch (corrupt matrix file)");
  }
  return Coo(rows, cols, std::move(triplets));
}

}  // namespace cosparse::sparse
