#include <gtest/gtest.h>

#include "baselines/ligra/apps.h"
#include "graph/algorithms.h"
#include "host_reference.h"
#include "sparse/datasets.h"
#include "sparse/generate.h"

namespace cosparse::graph {
namespace {

using runtime::Engine;
using sparse::Coo;
using testing::reference_cc;

TEST(ConnectedComponents, MatchesUnionFindOnRandomGraph) {
  // Sparse enough to have several components.
  const Coo adj = sparse::symmetrize(
      sparse::uniform_random(2000, 2000, 1500, 1));
  Engine eng(adj, sim::SystemConfig::transmuter(2, 8));
  const auto got = connected_components(eng);
  EXPECT_EQ(got.component, reference_cc(adj));
}

TEST(ConnectedComponents, SingleComponentDenseGraph) {
  const Coo adj = sparse::symmetrize(
      sparse::uniform_random(500, 500, 5000, 2));
  Engine eng(adj, sim::SystemConfig::transmuter(2, 4));
  const auto got = connected_components(eng);
  EXPECT_EQ(got.num_components, 1u);
  for (Index v = 0; v < 500; ++v) EXPECT_EQ(got.component[v], 0u);
}

TEST(ConnectedComponents, IsolatedVerticesAreSingletons) {
  Coo adj = sparse::symmetrize(Coo(6, 6, {{0, 1, 1.0}, {2, 3, 1.0}}));
  Engine eng(adj, sim::SystemConfig::transmuter(1, 2));
  const auto got = connected_components(eng);
  EXPECT_EQ(got.component[0], 0u);
  EXPECT_EQ(got.component[1], 0u);
  EXPECT_EQ(got.component[2], 2u);
  EXPECT_EQ(got.component[3], 2u);
  EXPECT_EQ(got.component[4], 4u);
  EXPECT_EQ(got.component[5], 5u);
  EXPECT_EQ(got.num_components, 4u);
}

TEST(ConnectedComponents, ComponentCountMatchesReference) {
  const Coo adj = sparse::symmetrize(
      sparse::power_law(3000, 3000, 4000, 2.2, 3));
  Engine eng(adj, sim::SystemConfig::transmuter(2, 8));
  const auto got = connected_components(eng);
  const auto want = reference_cc(adj);
  std::set<Index> distinct(want.begin(), want.end());
  EXPECT_EQ(got.num_components, distinct.size());
  EXPECT_EQ(got.component, want);
}

TEST(ConnectedComponents, AgreesWithMiniLigra) {
  sparse::DatasetRegistry reg;
  const auto g = reg.load("youtube", 256);  // undirected dataset
  const Coo sym = sparse::symmetrize(g.adjacency());
  Engine eng(sym, sim::SystemConfig::transmuter(2, 8));
  const auto ours = connected_components(eng);
  const auto lg = baselines::ligra::LigraGraph::build(sym);
  const auto theirs = baselines::ligra::ligra_cc(lg);
  EXPECT_EQ(ours.component, theirs.component);
  EXPECT_EQ(ours.num_components, theirs.num_components);
}

TEST(Symmetrize, ProducesMirroredEntries) {
  const Coo m(3, 3, {{0, 1, 2.0}, {2, 0, 3.0}});
  const Coo s = sparse::symmetrize(m);
  EXPECT_EQ(s.nnz(), 4u);
  std::set<std::pair<Index, Index>> coords;
  for (const auto& t : s.triplets()) coords.insert({t.row, t.col});
  EXPECT_TRUE(coords.count({1, 0}));
  EXPECT_TRUE(coords.count({0, 2}));
}

TEST(Symmetrize, RejectsNonSquare) {
  EXPECT_THROW(sparse::symmetrize(Coo(2, 3, {})), Error);
}

}  // namespace
}  // namespace cosparse::graph
