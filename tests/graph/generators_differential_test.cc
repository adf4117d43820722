// Copyright 2026 The siot-trust Authors.
// Differential check of the edge-list Barabási–Albert and G(n, p)
// generators against their GraphBuilder-based oracles
// (tests/support/reference_generators.h). Both make the same draws, so for
// every parameter set the graphs must be equal edge for edge and row for
// row, and the Rng must end in the same state.

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "common/rng.h"
#include "graph/generators.h"
#include "tests/support/reference_generators.h"

namespace siot::graph {
namespace {

void ExpectSameGraph(const Graph& actual, const Graph& expected) {
  ASSERT_EQ(actual.node_count(), expected.node_count());
  ASSERT_EQ(actual.edge_count(), expected.edge_count());
  EXPECT_EQ(actual.Edges(), expected.Edges());
  for (NodeId v = 0; v < expected.node_count(); ++v) {
    const auto a = actual.Neighbors(v);
    const auto b = expected.Neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "row " << v;
  }
}

// (n, m, seed).
using BaCase = std::tuple<std::size_t, std::size_t, std::uint64_t>;

class BarabasiAlbertDifferentialTest
    : public ::testing::TestWithParam<BaCase> {};

TEST_P(BarabasiAlbertDifferentialTest, MatchesReferenceAndRngState) {
  const auto [n, m, seed] = GetParam();
  Rng rng(seed);
  Rng reference_rng(seed);
  const Graph graph = BarabasiAlbert(n, m, rng);
  const Graph reference = ReferenceBarabasiAlbert(n, m, reference_rng);
  ExpectSameGraph(graph, reference);
  EXPECT_EQ(rng.NextDouble(), reference_rng.NextDouble());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BarabasiAlbertDifferentialTest,
    ::testing::Values(
        // n = m + 1: the seed star only, no draws.
        BaCase{2, 1, 1}, BaCase{16, 15, 7},
        // Small n against large m: draws collide with this step's targets
        // and exhaust the rejection guard.
        BaCase{17, 15, 1}, BaCase{17, 15, 7}, BaCase{20, 15, 3},
        // m = 1: trees.
        BaCase{300, 1, 1}, BaCase{300, 1, 7}, BaCase{5000, 1, 2},
        BaCase{200, 2, 5}, BaCase{5000, 3, 1},
        // m = 15 at n = 20,000, the shape of the service benchmark's graph.
        BaCase{20000, 15, 1}, BaCase{20000, 15, 7}));

// (n, p, seed).
using GnpCase = std::tuple<std::size_t, double, std::uint64_t>;

class ErdosRenyiGnpDifferentialTest
    : public ::testing::TestWithParam<GnpCase> {};

TEST_P(ErdosRenyiGnpDifferentialTest, MatchesReferenceAndRngState) {
  const auto [n, p, seed] = GetParam();
  Rng rng(seed);
  Rng reference_rng(seed);
  const Graph graph = ErdosRenyiGnp(n, p, rng);
  const Graph reference = ReferenceErdosRenyiGnp(n, p, reference_rng);
  ExpectSameGraph(graph, reference);
  EXPECT_EQ(rng.NextDouble(), reference_rng.NextDouble());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ErdosRenyiGnpDifferentialTest,
    ::testing::Values(GnpCase{0, 0.5, 1}, GnpCase{1, 0.5, 1},
                      GnpCase{50, 0.0, 1}, GnpCase{2, 0.5, 3},
                      GnpCase{200, 0.05, 1}, GnpCase{200, 0.5, 7},
                      GnpCase{2000, 0.002, 2}, GnpCase{300, 0.99, 4},
                      GnpCase{60, 1.0, 1}, GnpCase{1, 1.0, 1}));

}  // namespace
}  // namespace siot::graph
