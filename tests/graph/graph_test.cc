// Copyright 2026 The siot-trust Authors.

#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace siot::graph {
namespace {

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder builder(0);
  const Graph g = builder.Build();
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.AverageDegree(), 0.0);
}

TEST(GraphBuilderTest, IsolatedNodes) {
  GraphBuilder builder(5);
  const Graph g = builder.Build();
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.Degree(v), 0u);
}

TEST(GraphBuilderTest, AddEdgeDedupes) {
  GraphBuilder builder(3);
  EXPECT_TRUE(builder.AddEdge(0, 1));
  EXPECT_FALSE(builder.AddEdge(0, 1));
  EXPECT_FALSE(builder.AddEdge(1, 0));  // undirected
  EXPECT_EQ(builder.edge_count(), 1u);
}

TEST(GraphBuilderTest, SelfLoopIgnored) {
  GraphBuilder builder(3);
  EXPECT_FALSE(builder.AddEdge(2, 2));
  EXPECT_EQ(builder.edge_count(), 0u);
}

TEST(GraphBuilderTest, RemoveEdge) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  EXPECT_TRUE(builder.RemoveEdge(1, 0));
  EXPECT_FALSE(builder.RemoveEdge(0, 1));
  EXPECT_EQ(builder.edge_count(), 0u);
}

TEST(GraphBuilderTest, HasEdgeMirrorsAdds) {
  GraphBuilder builder(4);
  builder.AddEdge(1, 3);
  EXPECT_TRUE(builder.HasEdge(1, 3));
  EXPECT_TRUE(builder.HasEdge(3, 1));
  EXPECT_FALSE(builder.HasEdge(0, 1));
  EXPECT_FALSE(builder.HasEdge(2, 2));
}

TEST(GraphBuilderTest, OutOfRangeEdgeDies) {
  GraphBuilder builder(2);
  EXPECT_DEATH(builder.AddEdge(0, 2), "SIOT_CHECK failed");
}

TEST(GraphTest, NeighborsSortedAndSymmetric) {
  GraphBuilder builder(5);
  builder.AddEdge(0, 3);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 4);
  builder.AddEdge(3, 4);
  const Graph g = builder.Build();
  const auto n0 = g.Neighbors(0);
  EXPECT_TRUE(std::is_sorted(n0.begin(), n0.end()));
  EXPECT_EQ(std::vector<NodeId>(n0.begin(), n0.end()),
            (std::vector<NodeId>{1, 3, 4}));
  // Symmetry: every neighbor lists us back.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (NodeId u : g.Neighbors(v)) {
      const auto nu = g.Neighbors(u);
      EXPECT_TRUE(std::binary_search(nu.begin(), nu.end(), v));
    }
  }
}

TEST(GraphTest, DegreeMatchesNeighborCount) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(0, 3);
  const Graph g = builder.Build();
  EXPECT_EQ(g.Degree(0), 3u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.Neighbors(0).size(), g.Degree(0));
}

TEST(GraphTest, HasEdge) {
  GraphBuilder builder(4);
  builder.AddEdge(1, 2);
  const Graph g = builder.Build();
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(1, 1));
  // Out-of-range queries are false, not fatal (useful for generic code).
  EXPECT_FALSE(g.HasEdge(0, 99));
}

TEST(GraphTest, EdgesListsEachOnceOrdered) {
  GraphBuilder builder(4);
  builder.AddEdge(2, 1);
  builder.AddEdge(3, 0);
  builder.AddEdge(1, 0);
  const Graph g = builder.Build();
  const auto edges = g.Edges();
  EXPECT_EQ(edges.size(), 3u);
  for (const auto& [a, b] : edges) EXPECT_LT(a, b);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

TEST(GraphTest, AverageDegree) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(2, 3);
  const Graph g = builder.Build();
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 1.0);
}

TEST(GraphTest, CompleteGraph) {
  const std::size_t n = 10;
  GraphBuilder builder(n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) builder.AddEdge(a, b);
  }
  const Graph g = builder.Build();
  EXPECT_EQ(g.edge_count(), n * (n - 1) / 2);
  for (NodeId v = 0; v < n; ++v) EXPECT_EQ(g.Degree(v), n - 1);
}

TEST(GraphTest, BuilderReusableAfterBuild) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  const Graph g1 = builder.Build();
  builder.AddEdge(1, 2);
  const Graph g2 = builder.Build();
  EXPECT_EQ(g1.edge_count(), 1u);
  EXPECT_EQ(g2.edge_count(), 2u);
}

// On random duplicate-free edge lists — any order, either orientation —
// the edge-list fill builds exactly what GraphBuilder::Build() builds.
TEST(GraphFromEdgeListTest, MatchesBuilderOnRandomEdgeLists) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::size_t n = 1 + rng.NextBounded(60);
    const double p = rng.NextDouble();
    GraphBuilder builder(n);
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        if (!rng.Bernoulli(p)) continue;
        builder.AddEdge(a, b);
        if (rng.Bernoulli(0.5)) {
          edges.emplace_back(a, b);
        } else {
          edges.emplace_back(b, a);
        }
      }
    }
    rng.Shuffle(edges);
    const Graph expected = builder.Build();
    const Graph actual = Graph::FromEdgeList(n, edges);
    ASSERT_EQ(actual.node_count(), expected.node_count()) << "seed " << seed;
    ASSERT_EQ(actual.Edges(), expected.Edges()) << "seed " << seed;
    for (NodeId v = 0; v < n; ++v) {
      const auto a = actual.Neighbors(v);
      const auto b = expected.Neighbors(v);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "seed " << seed << " row " << v;
    }
  }
}

TEST(GraphFromEdgeListTest, EmptyListGivesIsolatedNodes) {
  const Graph g = Graph::FromEdgeList(4, {});
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(GraphFromEdgeListTest, DuplicateEdgeDies) {
  const std::vector<std::pair<NodeId, NodeId>> same{{0, 1}, {1, 2}, {0, 1}};
  EXPECT_DEATH(Graph::FromEdgeList(3, same), "listed twice");
  const std::vector<std::pair<NodeId, NodeId>> reversed{{0, 1}, {1, 0}};
  EXPECT_DEATH(Graph::FromEdgeList(3, reversed), "listed twice");
}

TEST(GraphFromEdgeListTest, SelfLoopDies) {
  const std::vector<std::pair<NodeId, NodeId>> edges{{0, 1}, {2, 2}};
  EXPECT_DEATH(Graph::FromEdgeList(3, edges), "self-loop");
}

TEST(GraphFromEdgeListTest, OutOfRangeIdDies) {
  const std::vector<std::pair<NodeId, NodeId>> edges{{0, 1}, {1, 3}};
  EXPECT_DEATH(Graph::FromEdgeList(3, edges), "out of range");
}

}  // namespace
}  // namespace siot::graph
