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
// answers (the TSan job runs this suite). Further cases, over worlds with
// tasks of 1, 2 and 3 parts, pin the per-thread scratch reuse and the
// edge cases of the search's hop frontier.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
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

// ---------------------------------------------------------------------------
// Worlds with tasks of 1, 2 and 3 parts. The random §5.5 worlds above
// only hold tasks of up to two characteristics, so these build their
// catalog and overlay records directly.

/// Overlay whose records are a pure function of (observer, subject).
class FunctionOverlay : public TrustOverlay {
 public:
  using Records =
      std::function<std::vector<TaskExperience>(AgentId, AgentId)>;
  explicit FunctionOverlay(Records records) : records_(std::move(records)) {}
  std::vector<TaskExperience> DirectExperience(
      AgentId observer, AgentId subject) const override {
    return records_(observer, subject);
  }

 private:
  Records records_;
};

/// For each of five characteristics c: tasks {c}, {c, c+1}, {c, c+1, c+2}
/// (mod 5), so task id t has 1 + t % 3 parts.
constexpr std::size_t kMixedTasks = 15;

TaskCatalog MixedPartsCatalog() {
  TaskCatalog catalog;
  for (CharacteristicId c = 0; c < 5; ++c) {
    std::vector<CharacteristicId> parts;
    for (CharacteristicId k = 0; k < 3; ++k) {
      parts.push_back(static_cast<CharacteristicId>((c + k) % 5));
      const auto added = catalog.AddUniform(
          "task-" + std::to_string(c) + "-" + std::to_string(k + 1), parts);
      SIOT_CHECK(added.ok());
    }
  }
  SIOT_CHECK(catalog.size() == kMixedTasks);
  return catalog;
}

/// Up to three distinct records per directed edge, values in [0.3, 1),
/// drawn from a stream seeded by the pair.
FunctionOverlay::Records RandomRecords(std::uint64_t seed) {
  return [seed](AgentId observer, AgentId subject) {
    Rng rng(MixSeed(seed, (std::uint64_t{observer} << 32) | subject));
    std::vector<TaskExperience> records;
    const auto count = static_cast<std::size_t>(rng.NextBounded(4));
    for (const std::size_t task :
         rng.SampleWithoutReplacement(kMixedTasks, count)) {
      records.push_back(
          {static_cast<TaskId>(task), 0.3 + 0.7 * rng.NextDouble()});
    }
    return records;
  };
}

/// A record of every task on every edge, worth 0.6 to 0.9 by subject:
/// every hop covers every task and clears ω = 0.5.
FunctionOverlay::Records UniformRecords() {
  return [](AgentId, AgentId subject) {
    std::vector<TaskExperience> records;
    for (TaskId task = 0; task < kMixedTasks; ++task) {
      records.push_back({task, 0.6 + 0.05 * static_cast<double>(subject % 7)});
    }
    return records;
  };
}

struct MixedWorld {
  MixedWorld(graph::Graph g, FunctionOverlay::Records records)
      : graph(std::move(g)),
        catalog(MixedPartsCatalog()),
        overlay(std::move(records)),
        snapshot(graph, overlay) {}

  std::unique_ptr<const TransitivitySearch> PreparedSearch(
      const TransitivityParams& params) const {
    auto search =
        std::make_unique<TransitivitySearch>(snapshot, catalog, params);
    std::vector<TaskId> tasks(catalog.size());
    std::iota(tasks.begin(), tasks.end(), TaskId{0});
    search->PrepareTasks(tasks);
    search->Seal();
    return search;
  }

  graph::Graph graph;
  TaskCatalog catalog;
  FunctionOverlay overlay;
  TrustOverlaySnapshot snapshot;
};

graph::Graph CommunityGraph(std::size_t node_count, std::uint64_t seed) {
  Rng rng(seed);
  graph::CommunityGraphParams params;
  params.node_count = node_count;
  params.community_count = 8;
  auto generated = graph::GenerateCommunityGraph(params, rng);
  SIOT_CHECK(generated.ok());
  return std::move(generated.value().graph);
}

// Each thread keeps one set of query buffers and cleans only the rows a
// query touched. One thread alternating between two searches over
// different node counts, and between tasks of 1, 2 and 3 parts (so the
// row width changes from query to query), must still answer every query
// exactly as the reference does.
TEST(OverlayScratchReuseTest, AlternatingSearchesMatchReference) {
  Rng graph_rng(41);
  const MixedWorld small(CommunityGraph(120, 40), RandomRecords(1));
  const MixedWorld large(graph::BarabasiAlbert(400, 3, graph_rng),
                         RandomRecords(2));
  TransitivityParams params;
  params.omega1 = 0.5;
  params.omega2 = 0.4;
  params.max_hops = 5;
  const MixedWorld* worlds[] = {&small, &large};
  const std::unique_ptr<const TransitivitySearch> searches[] = {
      small.PreparedSearch(params), large.PreparedSearch(params)};

  Rng rng(43);
  std::size_t found[4] = {0, 0, 0, 0};  // trustees by task part count
  for (int q = 0; q < 60; ++q) {
    const std::size_t w = q % 2;
    const MixedWorld& world = *worlds[w];
    const ReferenceTransitivitySearch reference(world.graph, world.catalog,
                                                world.overlay, params);
    const std::size_t parts = 1 + (q / 2) % 3;
    const auto task_id =
        static_cast<TaskId>(3 * rng.NextBounded(5) + parts - 1);
    const Task& task = world.catalog.Get(task_id);
    ASSERT_EQ(task.parts().size(), parts);
    const auto trustor =
        static_cast<AgentId>(rng.NextBounded(world.graph.node_count()));
    for (const TransitivityMethod method : kMethods) {
      SCOPED_TRACE(testing::Message()
                   << "query " << q << " nodes=" << world.graph.node_count()
                   << " trustor=" << trustor << " task=" << task_id
                   << " method=" << TransitivityMethodName(method));
      const TransitivityResult got =
          searches[w]->FindPotentialTrustees(trustor, task, method);
      ExpectBitwiseEqual(
          got, reference.FindPotentialTrustees(trustor, task, method));
      found[parts] += got.trustees.size();
    }
  }
  for (std::size_t parts = 1; parts <= 3; ++parts) {
    EXPECT_GT(found[parts], 0u) << parts << "-part tasks found no trustee";
  }
}

// Four threads share one search and run queries over tasks of every part
// count, each thread from its own offset, so every thread's scratch keeps
// changing width while the others use theirs.
TEST(OverlayScratchReuseTest, FourThreadsShareOneSearch) {
  const MixedWorld world(CommunityGraph(300, 44), RandomRecords(3));
  TransitivityParams params;
  params.omega1 = 0.45;
  params.omega2 = 0.35;
  params.max_hops = 4;
  const ReferenceTransitivitySearch reference(world.graph, world.catalog,
                                              world.overlay, params);
  const auto search = world.PreparedSearch(params);

  Rng rng(47);
  std::vector<Query> queries(30);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i].trustor =
        static_cast<AgentId>(rng.NextBounded(world.graph.node_count()));
    queries[i].task = static_cast<TaskId>(3 * rng.NextBounded(5) + i % 3);
    queries[i].method = kMethods[(i / 3) % 3];
  }
  std::vector<TransitivityResult> want;
  for (const Query& query : queries) {
    want.push_back(reference.FindPotentialTrustees(
        query.trustor, world.catalog.Get(query.task), query.method));
  }

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<TransitivityResult>> answers(
      kThreads, std::vector<TransitivityResult>(queries.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < queries.size(); ++k) {
        const std::size_t i = (k + t * 7) % queries.size();
        answers[t][i] = search->FindPotentialTrustees(
            queries[i].trustor, world.catalog.Get(queries[i].task),
            queries[i].method);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::size_t found = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "thread " << t << " query " << i);
      ExpectBitwiseEqual(answers[t][i], want[i]);
      found += answers[t][i].trustees.size();
    }
  }
  EXPECT_GT(found, 0u);
}

// ---------------------------------------------------------------------------
// Frontier edge cases. Each hop relaxes only the nodes whose value rose in
// the previous hop; these pin the cases where that frontier is empty from
// the start, empties after one hop, empties before max_hops, or is cut
// by max_hops at the last node.

/// Runs every method over every task from `trustor` on a prepared search,
/// checks each answer bitwise against the reference, and returns the
/// answers, [task][method].
std::vector<std::vector<TransitivityResult>> AllAnswersMatchReference(
    const MixedWorld& world, const TransitivityParams& params,
    AgentId trustor) {
  const ReferenceTransitivitySearch reference(world.graph, world.catalog,
                                              world.overlay, params);
  const auto search = world.PreparedSearch(params);
  std::vector<std::vector<TransitivityResult>> answers(world.catalog.size());
  for (TaskId task = 0; task < world.catalog.size(); ++task) {
    for (const TransitivityMethod method : kMethods) {
      SCOPED_TRACE(testing::Message()
                   << "trustor=" << trustor << " task=" << task
                   << " method=" << TransitivityMethodName(method)
                   << " max_hops=" << params.max_hops);
      answers[task].push_back(search->FindPotentialTrustees(
          trustor, world.catalog.Get(task), method));
      ExpectBitwiseEqual(answers[task].back(),
                         reference.FindPotentialTrustees(
                             trustor, world.catalog.Get(task), method));
    }
  }
  return answers;
}

/// Path 0 - 1 - ... - kPathEnd, then node kIsolated with no edge.
constexpr AgentId kPathEnd = 6;
constexpr AgentId kIsolated = kPathEnd + 1;

graph::Graph PathWithIsolatedNode() {
  graph::GraphBuilder builder(kIsolated + 1);
  for (AgentId v = 0; v < kPathEnd; ++v) builder.AddEdge(v, v + 1);
  return builder.Build();
}

bool HasTrustee(const TransitivityResult& result, AgentId agent) {
  for (const PotentialTrustee& trustee : result.trustees) {
    if (trustee.agent == agent) return true;
  }
  return false;
}

TEST(OverlayFrontierTest, IsolatedTrustorInquiresNobody) {
  const MixedWorld world(PathWithIsolatedNode(), UniformRecords());
  const TransitivityParams params;
  for (const auto& per_task :
       AllAnswersMatchReference(world, params, kIsolated)) {
    for (const TransitivityResult& result : per_task) {
      EXPECT_EQ(result.inquired_nodes, 0u);
      EXPECT_TRUE(result.trustees.empty());
    }
  }
  // And the isolated node is never reached from the path.
  for (const auto& per_task : AllAnswersMatchReference(world, params, 0)) {
    for (const TransitivityResult& result : per_task) {
      EXPECT_FALSE(HasTrustee(result, kIsolated));
    }
  }
}

TEST(OverlayFrontierTest, EveryHopFailingOmega1StopsAtTheNeighbors) {
  Rng rng(53);
  const MixedWorld world(graph::BarabasiAlbert(160, 3, rng),
                         UniformRecords());
  TransitivityParams params;
  params.omega1 = 0.95;  // above every hop value: nothing is recommended
  params.omega2 = 0.5;
  params.max_hops = 6;
  for (const AgentId trustor : {AgentId{0}, AgentId{77}, AgentId{159}}) {
    const auto answers = AllAnswersMatchReference(world, params, trustor);
    const std::size_t degree = world.graph.Degree(trustor);
    for (const auto& per_task : answers) {
      // Traditional transfers any positive trust and ignores ω1.
      for (std::size_t m = 1; m < 3; ++m) {
        const TransitivityResult& result = per_task[m];
        EXPECT_EQ(result.inquired_nodes, degree);
        EXPECT_EQ(result.trustees.size(), degree);
        for (const PotentialTrustee& trustee : result.trustees) {
          EXPECT_TRUE(world.graph.HasEdge(trustor, trustee.agent));
        }
      }
    }
  }
  // The same cut on a random §5.5 world, against the reference.
  const World random_world(GraphKind::kBarabasiAlbert, 3);
  params.omega1 = 1.0;
  const ReferenceTransitivitySearch reference(
      random_world.graph, random_world.catalog(), *random_world.world,
      params);
  const auto search = random_world.PreparedSearch(params);
  for (AgentId trustor = 0; trustor < 20; ++trustor) {
    for (TaskId task = 0; task < random_world.catalog().size(); ++task) {
      for (const TransitivityMethod method : kMethods) {
        const Task& t = random_world.catalog().Get(task);
        ExpectBitwiseEqual(search->FindPotentialTrustees(trustor, t, method),
                           reference.FindPotentialTrustees(trustor, t, method));
      }
    }
  }
}

TEST(OverlayFrontierTest, MaxHopsBeyondDiameterConverges) {
  const MixedWorld path(PathWithIsolatedNode(), UniformRecords());
  TransitivityParams params;
  params.max_hops = kPathEnd;  // the path's far end is kPathEnd hops away
  const auto exact = AllAnswersMatchReference(path, params, 0);
  params.max_hops = 50;  // the frontier empties long before
  const auto beyond = AllAnswersMatchReference(path, params, 0);
  for (std::size_t task = 0; task < exact.size(); ++task) {
    for (std::size_t m = 0; m < 3; ++m) {
      ExpectBitwiseEqual(beyond[task][m], exact[task][m]);
    }
  }
  // A generated world whose diameter is far below max_hops.
  const World world(GraphKind::kCommunity, 2);
  params.omega1 = 0.5;
  params.omega2 = 0.3;
  params.max_hops = 64;
  const ReferenceTransitivitySearch reference(world.graph, world.catalog(),
                                              *world.world, params);
  const auto search = world.PreparedSearch(params);
  std::size_t found = 0;
  for (AgentId trustor = 0; trustor < 160; trustor += 9) {
    for (TaskId task = 0; task < world.catalog().size(); ++task) {
      for (const TransitivityMethod method : kMethods) {
        const Task& t = world.catalog().Get(task);
        const TransitivityResult got =
            search->FindPotentialTrustees(trustor, t, method);
        ExpectBitwiseEqual(got,
                           reference.FindPotentialTrustees(trustor, t, method));
        found += got.trustees.size();
      }
    }
  }
  EXPECT_GT(found, 0u);
}

TEST(OverlayFrontierTest, MaxHopsCutsExactlyAtTheLastTrustee) {
  const MixedWorld world(PathWithIsolatedNode(), UniformRecords());
  TransitivityParams params;
  params.max_hops = kPathEnd;
  for (const auto& per_task : AllAnswersMatchReference(world, params, 0)) {
    for (const TransitivityResult& result : per_task) {
      EXPECT_EQ(result.inquired_nodes, kPathEnd);
      EXPECT_TRUE(HasTrustee(result, kPathEnd));
    }
  }
  params.max_hops = kPathEnd - 1;
  for (const auto& per_task : AllAnswersMatchReference(world, params, 0)) {
    for (const TransitivityResult& result : per_task) {
      EXPECT_EQ(result.inquired_nodes, kPathEnd - 1);
      EXPECT_FALSE(HasTrustee(result, kPathEnd));
      EXPECT_TRUE(HasTrustee(result, kPathEnd - 1));
    }
  }
}

}  // namespace
}  // namespace siot::trust
