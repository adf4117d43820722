// Copyright 2026 The siot-trust Authors.
// Differential oracle for the §4.3 transitivity search.
//
// The production TransitivitySearch runs over a TrustOverlaySnapshot with
// per-task hop caches that PrepareTasks fills up front.
// ReferenceTransitivitySearch (tests/support) is the live-overlay search
// it replaced: same relaxation, hop information derived per query. Over
// generated community and Barabási–Albert worlds, random ω1/ω2 (ω1 below
// 0.5 included), every max_hops from 1 to 8, all three methods, and with
// and without a trustee filter, the two must return bitwise-identical
// trustee ids, trustworthiness and per-characteristic values, and the
// same number of inquired nodes. A threaded leg shares one const prepared
// search between four query threads and checks them against the serial
// answers (the TSan job runs this suite).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "sim/network_setup.h"
#include "tests/support/reference_transitivity.h"
#include "trust/overlay_snapshot.h"
#include "trust/transitivity.h"

namespace siot::trust {
namespace {

enum class GraphKind { kCommunity, kBarabasiAlbert };

constexpr TransitivityMethod kMethods[] = {
    TransitivityMethod::kTraditional,
    TransitivityMethod::kConservative,
    TransitivityMethod::kAggressive,
};

/// A generated social graph, a random §5.5 world over it, and the
/// world's overlay snapshot.
struct World {
  World(GraphKind kind, std::uint64_t seed) {
    Rng rng(seed);
    if (kind == GraphKind::kCommunity) {
      graph::CommunityGraphParams params;
      params.node_count = 160;
      params.community_count = 10;
      auto generated = graph::GenerateCommunityGraph(params, rng);
      SIOT_CHECK(generated.ok());
      graph = std::move(generated.value().graph);
    } else {
      graph = graph::BarabasiAlbert(160, 3, rng);
    }
    sim::WorldConfig config;
    config.characteristic_count = 4 + seed % 3;
    world = std::make_unique<sim::SiotWorld>(
        sim::SiotWorld::BuildRandom(graph, config, rng));
    snapshot = std::make_unique<TrustOverlaySnapshot>(graph, *world);
  }

  const TaskCatalog& catalog() const { return world->catalog(); }

  /// The production search over the snapshot, every task prepared.
  std::unique_ptr<const TransitivitySearch> PreparedSearch(
      const TransitivityParams& params) const {
    auto search =
        std::make_unique<TransitivitySearch>(*snapshot, catalog(), params);
    std::vector<TaskId> tasks(catalog().size());
    std::iota(tasks.begin(), tasks.end(), TaskId{0});
    search->PrepareTasks(tasks);
    search->Seal();
    return search;
  }

  graph::Graph graph{0};
  std::unique_ptr<sim::SiotWorld> world;
  std::unique_ptr<TrustOverlaySnapshot> snapshot;
};

std::uint64_t Bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

void ExpectBitwiseEqual(const TransitivityResult& got,
                        const TransitivityResult& want) {
  EXPECT_EQ(got.inquired_nodes, want.inquired_nodes);
  ASSERT_EQ(got.trustees.size(), want.trustees.size());
  for (std::size_t i = 0; i < want.trustees.size(); ++i) {
    const PotentialTrustee& g = got.trustees[i];
    const PotentialTrustee& w = want.trustees[i];
    EXPECT_EQ(g.agent, w.agent) << "rank " << i;
    EXPECT_EQ(Bits(g.trustworthiness), Bits(w.trustworthiness))
        << "rank " << i << ": " << g.trustworthiness << " vs "
        << w.trustworthiness;
    ASSERT_EQ(g.per_characteristic.size(), w.per_characteristic.size());
    for (std::size_t c = 0; c < w.per_characteristic.size(); ++c) {
      EXPECT_EQ(Bits(g.per_characteristic[c]),
                Bits(w.per_characteristic[c]))
          << "rank " << i << " characteristic " << c;
    }
  }
}

struct Query {
  AgentId trustor = kNoAgent;
  TaskId task = kNoTask;
  TransitivityMethod method = TransitivityMethod::kAggressive;
};

class OverlaySearchDifferentialTest
    : public ::testing::TestWithParam<std::tuple<GraphKind, std::uint64_t>> {
};

INSTANTIATE_TEST_SUITE_P(
    Worlds, OverlaySearchDifferentialTest,
    ::testing::Combine(::testing::Values(GraphKind::kCommunity,
                                         GraphKind::kBarabasiAlbert),
                       ::testing::Range<std::uint64_t>(1, 5)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == GraphKind::kCommunity
                             ? "Community"
                             : "BarabasiAlbert") +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(OverlaySearchDifferentialTest, PreparedSearchMatchesReference) {
  const auto [kind, seed] = GetParam();
  const World world(kind, seed);
  Rng rng(seed * 7919 + 11);
  // Trustees found per method across the whole case: an oracle that only
  // ever compares two empty answers proves nothing.
  std::size_t found[3] = {0, 0, 0};
  for (std::size_t max_hops = 1; max_hops <= 8; ++max_hops) {
    for (const bool filtered : {false, true}) {
      TransitivityParams params;
      // Alternate ω1 below 0.5 (the greedy-approximation regime) with the
      // full [0, 1) range.
      params.omega1 = max_hops % 2 == 0 ? 0.5 * rng.NextDouble()
                                        : rng.NextDouble();
      params.omega2 = rng.NextDouble();
      params.max_hops = max_hops;
      if (filtered) {
        params.trustee_eligible = [](AgentId agent) {
          return agent % 3 != 0;
        };
      }
      SCOPED_TRACE(testing::Message()
                   << "max_hops=" << max_hops << " omega1=" << params.omega1
                   << " omega2=" << params.omega2
                   << " filtered=" << filtered);
      const ReferenceTransitivitySearch reference(
          world.graph, world.catalog(), *world.world, params);
      const auto search = world.PreparedSearch(params);
      for (int q = 0; q < 4; ++q) {
        const auto trustor = static_cast<AgentId>(
            rng.NextBounded(world.graph.node_count()));
        const Task& task =
            world.catalog().Get(world.world->SampleRequest(rng));
        for (std::size_t m = 0; m < 3; ++m) {
          SCOPED_TRACE(testing::Message()
                       << "trustor=" << trustor << " task=" << task.id()
                       << " method=" << TransitivityMethodName(kMethods[m]));
          const TransitivityResult got =
              search->FindPotentialTrustees(trustor, task, kMethods[m]);
          ExpectBitwiseEqual(
              got, reference.FindPotentialTrustees(trustor, task,
                                                   kMethods[m]));
          found[m] += got.trustees.size();
        }
      }
    }
  }
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_GT(found[m], 0u) << TransitivityMethodName(kMethods[m])
                            << " never found a trustee";
  }
}

TEST_P(OverlaySearchDifferentialTest, ConcurrentQueriesMatchSerial) {
  const auto [kind, seed] = GetParam();
  const World world(kind, seed);
  TransitivityParams params;
  params.omega1 = 0.45;
  params.omega2 = 0.3;
  params.max_hops = 4;
  const ReferenceTransitivitySearch reference(world.graph, world.catalog(),
                                              *world.world, params);
  const auto search = world.PreparedSearch(params);

  Rng rng(seed * 104729 + 3);
  std::vector<Query> queries(24);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i].trustor =
        static_cast<AgentId>(rng.NextBounded(world.graph.node_count()));
    queries[i].task = world.world->SampleRequest(rng);
    queries[i].method = kMethods[i % 3];
  }
  std::vector<TransitivityResult> serial;
  for (const Query& query : queries) {
    serial.push_back(search->FindPotentialTrustees(
        query.trustor, world.catalog().Get(query.task), query.method));
    ExpectBitwiseEqual(serial.back(),
                       reference.FindPotentialTrustees(
                           query.trustor, world.catalog().Get(query.task),
                           query.method));
  }

  // Four threads share the one const search; each walks every query from
  // its own starting offset so different queries overlap in time.
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<TransitivityResult>> answers(
      kThreads, std::vector<TransitivityResult>(queries.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < queries.size(); ++k) {
        const std::size_t i = (k + t * queries.size() / kThreads) %
                              queries.size();
        answers[t][i] = search->FindPotentialTrustees(
            queries[i].trustor, world.catalog().Get(queries[i].task),
            queries[i].method);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "thread " << t << " query " << i);
      ExpectBitwiseEqual(answers[t][i], serial[i]);
    }
  }
}

}  // namespace
}  // namespace siot::trust
