#include "sparse/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "../common/temp_path.h"
#include "common/error.h"
#include "sparse/datasets.h"
#include "sparse/generate.h"

namespace cosparse::sparse {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    const std::string p = test::unique_temp_path(name + ".bin");
    paths_.push_back(p);
    return p;
  }
  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }
  std::vector<std::string> paths_;
};

TEST_F(SerializeTest, RoundTripPreservesEverything) {
  const Coo m = uniform_random(300, 200, 4000, 7, ValueDist::kUniform01);
  const auto p = path("roundtrip");
  write_binary(p, m);
  const Coo back = read_binary(p);
  EXPECT_EQ(back.rows(), m.rows());
  EXPECT_EQ(back.cols(), m.cols());
  EXPECT_EQ(back.triplets(), m.triplets());
}

TEST_F(SerializeTest, EmptyMatrixRoundTrip) {
  const Coo m(5, 5, {});
  const auto p = path("empty");
  write_binary(p, m);
  const Coo back = read_binary(p);
  EXPECT_EQ(back.nnz(), 0u);
  EXPECT_EQ(back.rows(), 5u);
}

TEST_F(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(read_binary("/nonexistent/matrix.bin"), Error);
}

TEST_F(SerializeTest, BadMagicRejected) {
  const auto p = path("magic");
  std::ofstream(p, std::ios::binary) << "this is not a matrix at all";
  EXPECT_THROW(read_binary(p), Error);
}

TEST_F(SerializeTest, TruncationRejected) {
  const Coo m = uniform_random(100, 100, 1000, 8);
  const auto p = path("trunc");
  write_binary(p, m);
  // Chop the file in half.
  std::ifstream in(p, std::ios::binary | std::ios::ate);
  const auto size = static_cast<long>(in.tellg());
  in.close();
  std::string data(static_cast<std::size_t>(size), '\0');
  std::ifstream(p, std::ios::binary).read(data.data(), size);
  std::ofstream(p, std::ios::binary | std::ios::trunc)
      .write(data.data(), size / 2);
  EXPECT_THROW(read_binary(p), Error);
}

TEST_F(SerializeTest, CorruptionRejectedByChecksum) {
  const Coo m = uniform_random(100, 100, 1000, 9, ValueDist::kUniform01);
  const auto p = path("corrupt");
  write_binary(p, m);
  // Flip one byte in the middle of the payload.
  std::fstream f(p, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(100);
  char b = 0;
  f.read(&b, 1);
  f.seekp(100);
  b = static_cast<char>(b ^ 0x40);
  f.write(&b, 1);
  f.close();
  EXPECT_THROW(read_binary(p), Error);
}

// Overwrites the header's nnz field (after magic, version, rows, cols).
void set_declared_nnz(const std::string& p, std::uint64_t nnz) {
  std::fstream f(p, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8 + 4 + 4 + 4);
  f.write(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
}

TEST_F(SerializeTest, DeclaredNnzBeyondFileSizeRejected) {
  const Coo m = uniform_random(100, 100, 1000, 10);
  const auto p = path("nnz");
  write_binary(p, m);
  set_declared_nnz(p, std::uint64_t{1} << 40);
  EXPECT_THROW((void)read_binary(p), Error);
  set_declared_nnz(p, m.nnz() + 1);
  EXPECT_THROW((void)read_binary(p), Error);
}

TEST_F(SerializeTest, CorruptDatasetCacheIsRegenerated) {
  // A cache file whose header declares 2^40 entries is ignored with a
  // warning, and the load regenerates the same graph as an uncached load.
  const auto uncached = DatasetRegistry().load("twitter", 128);
  const std::string dir = test::unique_temp_path("cache");
  std::filesystem::create_directories(dir);
  const std::string cached = dir + "/twitter_scale128.bin";
  write_binary(cached, uncached.adjacency());
  set_declared_nnz(cached, std::uint64_t{1} << 40);
  setenv("COSPARSE_CACHE_DIR", dir.c_str(), 1);
  const auto reloaded = DatasetRegistry().load("twitter", 128);
  unsetenv("COSPARSE_CACHE_DIR");
  EXPECT_EQ(reloaded.adjacency().triplets(), uncached.adjacency().triplets());
  EXPECT_EQ(read_binary(cached).triplets(), uncached.adjacency().triplets());
  std::filesystem::remove_all(dir);
}

TEST_F(SerializeTest, DatasetCacheViaEnvironment) {
  // With COSPARSE_CACHE_DIR set, a second load must reuse the cached file
  // and produce the identical graph.
  const std::string dir = test::unique_temp_path("cache");
  setenv("COSPARSE_CACHE_DIR", dir.c_str(), 1);
  DatasetRegistry reg;
  const auto a = reg.load("twitter", 128);
  const std::string cached = dir + "/twitter_scale128.bin";
  EXPECT_TRUE(std::ifstream(cached).good());
  const auto b = reg.load("twitter", 128);
  EXPECT_EQ(a.adjacency().triplets(), b.adjacency().triplets());
  unsetenv("COSPARSE_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cosparse::sparse
