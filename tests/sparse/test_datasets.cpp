#include "sparse/datasets.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "common/digest.h"
#include "common/error.h"
#include "sparse/generate.h"

namespace cosparse::sparse {
namespace {

std::string digest_of(const Coo& m) {
  Digest d;
  d.update_index(m.rows());
  d.update_index(m.cols());
  d.update_u64(m.nnz());
  for (const Triplet& t : m.triplets()) {
    d.update_index(t.row);
    d.update_index(t.col);
    d.update_value(t.value);
  }
  return d.hex();
}

std::string digest_of(const SparseVector& v) {
  Digest d;
  d.update_index(v.dimension());
  d.update_u64(v.nnz());
  for (const VectorEntry& e : v.entries()) {
    d.update_index(e.index);
    d.update_value(e.value);
  }
  return d.hex();
}

TEST(Datasets, TableThreeSpecsPresent) {
  const auto& specs = DatasetRegistry::specs();
  ASSERT_EQ(specs.size(), 5u);
  EXPECT_EQ(specs[0].name, "livejournal");
  EXPECT_EQ(specs[0].vertices, 4847571u);
  EXPECT_EQ(specs[0].edges, 68992772u);
  EXPECT_EQ(specs[1].name, "pokec");
  EXPECT_TRUE(specs[1].directed);
  EXPECT_EQ(specs[2].name, "youtube");
  EXPECT_FALSE(specs[2].directed);
  EXPECT_EQ(specs[3].name, "twitter");
  EXPECT_EQ(specs[4].name, "vsp");
  EXPECT_FALSE(specs[4].power_law);
}

TEST(Datasets, UnknownNameThrows) {
  EXPECT_THROW((void)DatasetRegistry::spec("facebook"), Error);
  DatasetRegistry reg;
  EXPECT_THROW((void)reg.load("facebook"), Error);
}

TEST(Datasets, ScaledLoadMatchesSpecProportions) {
  DatasetRegistry reg;
  const unsigned scale = 64;
  const Graph g = reg.load("twitter", scale);
  const auto& s = DatasetRegistry::spec("twitter");
  EXPECT_EQ(g.num_vertices(), s.vertices / scale);
  // Edge count within 1% of target (duplicate folding can drop a few).
  EXPECT_NEAR(static_cast<double>(g.num_edges()),
              static_cast<double>(s.edges / scale),
              0.01 * static_cast<double>(s.edges / scale));
}

TEST(Datasets, DeterministicAcrossLoads) {
  DatasetRegistry reg;
  const Graph a = reg.load("vsp", 8);
  const Graph b = reg.load("vsp", 8);
  EXPECT_EQ(a.adjacency().triplets(), b.adjacency().triplets());
}

TEST(Datasets, UndirectedGraphIsSymmetric) {
  DatasetRegistry reg;
  const Graph g = reg.load("vsp", 16);
  const auto& tri = g.adjacency().triplets();
  // Every off-diagonal (u, v) must have a matching (v, u).
  std::set<std::pair<Index, Index>> coords;
  for (const auto& t : tri) coords.insert({t.row, t.col});
  for (const auto& t : tri) {
    if (t.row != t.col) {
      EXPECT_TRUE(coords.count({t.col, t.row}))
          << "missing mirror of (" << t.row << "," << t.col << ")";
    }
  }
}

TEST(Datasets, PowerLawStandInIsSkewed) {
  DatasetRegistry reg;
  const Graph g = reg.load("twitter", 16);
  const auto& deg = g.out_degrees();
  const Index max_deg = *std::max_element(deg.begin(), deg.end());
  EXPECT_GT(static_cast<double>(max_deg), 20.0 * g.average_degree());
}

TEST(Datasets, UniformStandInIsNotVerySkewed) {
  DatasetRegistry reg;
  const Graph g = reg.load("vsp", 8);
  const auto& deg = g.out_degrees();
  const Index max_deg = *std::max_element(deg.begin(), deg.end());
  EXPECT_LT(static_cast<double>(max_deg), 5.0 * g.average_degree());
}

TEST(Datasets, GraphDegreesConsistent) {
  DatasetRegistry reg;
  const Graph g = reg.load("youtube", 64);
  std::uint64_t total = 0;
  for (Index d : g.out_degrees()) total += d;
  EXPECT_EQ(total, g.num_edges());
}

// Every stand-in and generator output is pinned bit-for-bit: a change to
// matrix assembly, hashing or sampling that alters one coordinate or one
// value bit moves its digest.
TEST(Datasets, StandInDigestsArePinned) {
  DatasetRegistry reg;
  const std::pair<const char*, const char*> datasets[] = {
      {"livejournal", "4676d0755ce64215"}, {"pokec", "3f7c2eefc0ac3f58"},
      {"youtube", "7605364391cf78df"},     {"twitter", "c78f6100d7fe83a5"},
      {"vsp", "90ad3af1277b7f8e"},
  };
  for (const auto& [name, expected] : datasets) {
    EXPECT_EQ(digest_of(reg.load(name, 64).adjacency()), expected) << name;
  }
  EXPECT_EQ(digest_of(rmat(12, 20000, 0.57, 0.19, 0.19, 7,
                           ValueDist::kUniformInt)),
            "66462bc1fc00b07f");
  EXPECT_EQ(digest_of(power_law(5000, 4000, 30000, 2.5, 3,
                                ValueDist::kUniform01)),
            "4dafc475d5fc5620");
  EXPECT_EQ(digest_of(uniform_random(3000, 5000, 40000, 11,
                                     ValueDist::kUniform01)),
            "142a81c76a28508c");
  EXPECT_EQ(digest_of(banded(4000, 4000, 8, 20000, 5, ValueDist::kUniformInt)),
            "b42a47746a11c9c5");
  EXPECT_EQ(digest_of(random_sparse_vector(100000, 0.05, 9)),
            "699ebb62227c197c");
}

}  // namespace
}  // namespace cosparse::sparse
