// Copyright 2026 The siot-trust Authors.
// The read contract leader and follower share: the same request gets the
// same status, the same message and the same counter movement on a
// TrustService and on a caught-up ReplicaService of its directory, and
// accepted batches answer item by item exactly like the leader. Every
// case runs once per role; the follower-only case pins the rule that a
// task becomes valid on a node once every shard of that node has it.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "service/replication.h"
#include "service/trust_service.h"

namespace siot::service {
namespace {

using trust::AgentId;
using trust::TaskId;

constexpr std::chrono::milliseconds kAwaitTimeout{10000};
constexpr AgentId kAgents = 32;
constexpr TaskId kUnregistered = 7;

TrustServiceConfig MakeConfig() {
  TrustServiceConfig config;
  config.shard_count = 4;
  config.engine.beta = trust::ForgettingFactors::Uniform(0.2);
  config.engine.initial_estimates = {0.5, 0.5, 0.5, 0.5};
  return config;
}

std::string MakeTestDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "siot_read_contract_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::shared_ptr<const graph::Graph> RingGraph() {
  graph::GraphBuilder builder(kAgents);
  for (AgentId t = 0; t < kAgents; ++t) {
    for (AgentId d = 1; d <= 3; ++d) builder.AddEdge(t, (t + d) % kAgents);
  }
  return std::make_shared<graph::Graph>(builder.Build());
}

trust::TransitivityParams Params() {
  trust::TransitivityParams params;
  params.omega1 = 0.5;
  params.omega2 = 0.0;
  params.max_hops = 4;
  return params;
}

/// Reports for every trustor toward a ring neighbour, varied by `round`.
std::vector<OutcomeReport> MakeBatch(TaskId task, std::uint64_t round) {
  std::vector<OutcomeReport> reports;
  for (AgentId t = 0; t < kAgents; ++t) {
    OutcomeReport report;
    report.trustor = t;
    report.trustee = (t + 1 + (t + round) % 3) % kAgents;
    report.task = task;
    report.outcome.success = (t + round) % 3 != 0;
    report.outcome.gain = report.outcome.success ? 0.8 : 0.0;
    report.outcome.damage = report.outcome.success ? 0.0 : 0.4;
    report.outcome.cost = 0.1;
    report.trustor_was_abusive = (t + round) % 11 == 0;
    reports.push_back(report);
  }
  return reports;
}

/// One delegation request per trustor over its ring neighbours; every
/// third carries self-estimates so the Eq. 24 comparison runs too.
std::vector<DelegationServiceRequest> MakeDelegations(TaskId task) {
  std::vector<DelegationServiceRequest> requests;
  for (AgentId t = 0; t < kAgents; ++t) {
    DelegationServiceRequest request;
    request.trustor = t;
    request.task = task;
    request.candidates = {(t + 1) % kAgents, (t + 2) % kAgents,
                          (t + 3) % kAgents, (t + 9) % kAgents};
    if (t % 3 == 0) request.self_estimates = {0.6, 0.5, 0.2, 0.1};
    requests.push_back(request);
  }
  return requests;
}

void ExpectSameDelegation(const trust::DelegationRequestResult& a,
                          const trust::DelegationRequestResult& b,
                          std::size_t item) {
  EXPECT_EQ(a.trustee, b.trustee) << "item " << item;
  EXPECT_EQ(a.no_candidates, b.no_candidates) << "item " << item;
  EXPECT_EQ(a.unavailable, b.unavailable) << "item " << item;
  EXPECT_EQ(a.self_execution, b.self_execution) << "item " << item;
  EXPECT_EQ(a.trustworthiness, b.trustworthiness) << "item " << item;
  EXPECT_EQ(a.expected_profit, b.expected_profit) << "item " << item;
  EXPECT_EQ(a.refusals, b.refusals) << "item " << item;
}

void ExpectRejected(const Status& status, const std::string& message) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_EQ(status.message(), message);
}

enum class Role { kLeader, kFollower };

/// A durable leader with history, admin state and a published overlay,
/// plus a follower of its directory caught up to the leader's
/// WalPositions barrier with its own overlay built.
class ReadContractTest : public ::testing::TestWithParam<Role> {
 protected:
  void SetUp() override {
    // CTest runs every case in its own process concurrently: one
    // directory per case ("Case/Leader" -> "Case_Leader").
    std::string tag =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(tag.begin(), tag.end(), '/', '_');
    dir_ = MakeTestDir(tag);
    PersistenceOptions options;
    options.directory = dir_;
    auto leader = TrustService::Open(config_, options);
    ASSERT_TRUE(leader.ok()) << leader.status().ToString();
    leader_ = std::move(leader).value();
    const auto task = leader_->RegisterTask("sense", {0, 1});
    ASSERT_TRUE(task.ok());
    task_ = task.value();
    // A demanding trustee makes some delegations walk past a refusal.
    ASSERT_TRUE(leader_->SetReverseThreshold(5, trust::kNoTask, 0.95).ok());
    for (std::uint64_t round = 0; round < 4; ++round) {
      ASSERT_TRUE(leader_->BatchReportOutcome(MakeBatch(task_, round)).ok());
    }
    const auto graph = RingGraph();
    ASSERT_TRUE(leader_->EnableTransitiveServing(graph, Params()).ok());
    ASSERT_TRUE(leader_->RebuildOverlaySnapshot().ok());

    ReplicaOptions replica_options;
    replica_options.directory = dir_;
    replica_options.overlay_graph = graph;
    replica_options.transitivity = Params();
    auto follower = ReplicaService::Open(config_, replica_options);
    ASSERT_TRUE(follower.ok()) << follower.status().ToString();
    follower_ = std::move(follower).value();
    ASSERT_TRUE(
        follower_->AwaitPositions(leader_->WalPositions(), kAwaitTimeout)
            .ok());
    ASSERT_TRUE(follower_->BuildOverlaySnapshot().ok());
  }

  void TearDown() override {
    follower_.reset();
    leader_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Runs `read` against the service under test.
  template <typename Read>
  auto OnRole(const Read& read) const {
    return GetParam() == Role::kLeader ? read(*leader_) : read(*follower_);
  }

  TrustServiceStats RoleStats() const {
    return OnRole([](const auto& service) { return service.Stats(); });
  }

  /// Neither read counter moved since `before`.
  void ExpectCountersUnchanged(const TrustServiceStats& before) const {
    const TrustServiceStats after = RoleStats();
    EXPECT_EQ(after.pre_evaluations, before.pre_evaluations);
    EXPECT_EQ(after.delegation_requests, before.delegation_requests);
  }

  const TrustServiceConfig config_ = MakeConfig();
  std::string dir_;
  std::unique_ptr<TrustService> leader_;
  std::unique_ptr<ReplicaService> follower_;
  TaskId task_ = trust::kNoTask;
};

TEST_P(ReadContractTest, NoAgentSentinelsAreRejected) {
  const TrustServiceStats before = RoleStats();
  ExpectRejected(OnRole([&](const auto& service) {
                   return service.PreEvaluate(trust::kNoAgent, 1, task_)
                       .status();
                 }),
                 "trustor is the kNoAgent sentinel");
  ExpectRejected(OnRole([&](const auto& service) {
                   return service.PreEvaluate(1, trust::kNoAgent, task_)
                       .status();
                 }),
                 "trustee is the kNoAgent sentinel");
  DelegationServiceRequest request;
  request.trustor = trust::kNoAgent;
  request.task = task_;
  request.candidates = {2, 3};
  ExpectRejected(OnRole([&](const auto& service) {
                   return service.RequestDelegation(request).status();
                 }),
                 "trustor is the kNoAgent sentinel");
  request.trustor = 1;
  request.candidates = {2, trust::kNoAgent};
  ExpectRejected(OnRole([&](const auto& service) {
                   return service.RequestDelegation(request).status();
                 }),
                 "candidate is the kNoAgent sentinel");
  ExpectCountersUnchanged(before);
}

TEST_P(ReadContractTest, UnregisteredTaskIsRejected) {
  const TrustServiceStats before = RoleStats();
  const std::string message =
      "task id " + std::to_string(kUnregistered) + " is not registered";
  ExpectRejected(OnRole([&](const auto& service) {
                   return service.PreEvaluate(1, 2, kUnregistered).status();
                 }),
                 message);
  DelegationServiceRequest request;
  request.trustor = 1;
  request.task = kUnregistered;
  request.candidates = {2, 3};
  ExpectRejected(OnRole([&](const auto& service) {
                   return service.RequestDelegation(request).status();
                 }),
                 message);
  TransitiveTrustRequest transitive;
  transitive.trustor = 1;
  transitive.task = kUnregistered;
  EXPECT_EQ(OnRole([&](const auto& service) {
              return service.TransitiveTrust(transitive).status().code();
            }),
            StatusCode::kInvalidArgument);
  ExpectCountersUnchanged(before);
}

TEST_P(ReadContractTest, BadLastItemRejectsEveryBatchKind) {
  const TrustServiceStats before = RoleStats();
  const std::string unregistered =
      "task id " + std::to_string(kUnregistered) + " is not registered";

  std::vector<PreEvaluateRequest> preevaluations = {
      {1, 2, task_}, {3, 4, task_}, {5, 6, kUnregistered}};
  ExpectRejected(OnRole([&](const auto& service) {
                   return service.BatchPreEvaluate(preevaluations).status();
                 }),
                 unregistered);
  preevaluations.back() = {5, trust::kNoAgent, task_};
  ExpectRejected(OnRole([&](const auto& service) {
                   return service.BatchPreEvaluate(preevaluations).status();
                 }),
                 "trustee is the kNoAgent sentinel");

  std::vector<DelegationServiceRequest> delegations = MakeDelegations(task_);
  delegations.back().task = kUnregistered;
  ExpectRejected(OnRole([&](const auto& service) {
                   return service.BatchRequestDelegation(delegations)
                       .status();
                 }),
                 unregistered);
  delegations.back().task = task_;
  delegations.back().candidates.push_back(trust::kNoAgent);
  ExpectRejected(OnRole([&](const auto& service) {
                   return service.BatchRequestDelegation(delegations)
                       .status();
                 }),
                 "candidate is the kNoAgent sentinel");

  std::vector<TransitiveTrustRequest> transitive(3);
  for (std::size_t i = 0; i < transitive.size(); ++i) {
    transitive[i].trustor = static_cast<AgentId>(i);
    transitive[i].task = task_;
  }
  transitive.back().trustor = kAgents + 1;  // Outside the graph.
  const Status transitive_status = OnRole([&](const auto& service) {
    return service.BatchTransitiveTrust(transitive).status();
  });
  EXPECT_EQ(transitive_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(transitive_status.message().find("request 2"),
            std::string::npos)
      << transitive_status.message();
  ExpectCountersUnchanged(before);

  // The same batches without the bad item are accepted, and only then
  // does each counter move, by exactly the batch size.
  preevaluations.pop_back();
  delegations.pop_back();
  ASSERT_TRUE(OnRole([&](const auto& service) {
                return service.BatchPreEvaluate(preevaluations).status();
              }).ok());
  ASSERT_TRUE(OnRole([&](const auto& service) {
                return service.BatchRequestDelegation(delegations).status();
              }).ok());
  const TrustServiceStats after = RoleStats();
  EXPECT_EQ(after.pre_evaluations,
            before.pre_evaluations + preevaluations.size());
  EXPECT_EQ(after.delegation_requests,
            before.delegation_requests + delegations.size());
}

TEST_P(ReadContractTest, BatchesMatchLeaderItemByItemAtBarrier) {
  // More history after the follower's first catch-up, then a fresh
  // barrier: both roles now hold the same acknowledged state.
  ASSERT_TRUE(leader_->BatchReportOutcome(MakeBatch(task_, 9)).ok());
  ASSERT_TRUE(
      follower_->AwaitPositions(leader_->WalPositions(), kAwaitTimeout)
          .ok());

  const std::vector<DelegationServiceRequest> delegations =
      MakeDelegations(task_);
  const auto batch = OnRole([&](const auto& service) {
    return service.BatchRequestDelegation(delegations);
  });
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), delegations.size());
  std::size_t refused = 0;
  for (std::size_t i = 0; i < delegations.size(); ++i) {
    const auto single = leader_->RequestDelegation(delegations[i]);
    ASSERT_TRUE(single.ok());
    ExpectSameDelegation(batch.value()[i], single.value(), i);
    refused += single.value().refusals.size();
  }
  EXPECT_GT(refused, 0u) << "no case exercised a reverse-evaluation refusal";

  std::vector<PreEvaluateRequest> preevaluations;
  for (AgentId t = 0; t < kAgents; ++t) {
    preevaluations.push_back({t, (t + 1) % kAgents, task_});
  }
  const auto values = OnRole([&](const auto& service) {
    return service.BatchPreEvaluate(preevaluations);
  });
  ASSERT_TRUE(values.ok());
  for (std::size_t i = 0; i < preevaluations.size(); ++i) {
    const PreEvaluateRequest& r = preevaluations[i];
    EXPECT_EQ(values.value()[i],
              leader_->PreEvaluate(r.trustor, r.trustee, r.task).value())
        << "item " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Roles, ReadContractTest,
    ::testing::Values(Role::kLeader, Role::kFollower),
    [](const ::testing::TestParamInfo<Role>& info) {
      return info.param == Role::kLeader ? "Leader" : "Follower";
    });

TEST(FollowerReadContractTest, TaskIsValidOnceEveryShardHasApplied) {
  const std::string dir = MakeTestDir("partial_apply");
  const TrustServiceConfig config = MakeConfig();
  PersistenceOptions options;
  options.directory = dir;
  auto leader = TrustService::Open(config, options).value();
  const TaskId first = leader->RegisterTask("sense", {0}).value();

  ReplicaOptions replica_options;
  replica_options.directory = dir;
  // One frame per shard per poll: shards advance through their WALs in
  // lockstep, so a shard with a longer backlog lags the others.
  replica_options.max_frames_per_poll = 1;
  auto follower = ReplicaService::Open(config, replica_options).value();
  while (follower->PollAll().value() > 0) {
  }

  // Two reports queue ahead of the next registration on one shard only.
  AgentId early = 0;  // Routed to shard 0.
  while (leader->ShardOf(early) != 0) ++early;
  AgentId busy = 0;  // Routed to some other shard.
  while (leader->ShardOf(busy) == 0) ++busy;
  const std::size_t busy_shard = leader->ShardOf(busy);
  for (const double gain : {0.7, 0.9}) {
    OutcomeReport report;
    report.trustor = busy;
    report.trustee = busy + 1;
    report.task = first;
    report.outcome = {true, gain, 0.0, 0.1};
    ASSERT_TRUE(leader->ReportOutcome(report).ok());
  }
  const TaskId late = leader->RegisterTask("act", {1}).value();
  const std::string message =
      "task id " + std::to_string(late) + " is not registered";

  // First poll: shard 0 applies the registration, the busy shard only
  // its first report. The trustor's own shard having the task is not
  // enough — the follower answers exactly as a leader mid-registration
  // would.
  ASSERT_EQ(follower->PollAll().value(), config.shard_count);
  EXPECT_EQ(follower->shard_engine(0).catalog().size(), 2u);
  EXPECT_EQ(follower->shard_engine(busy_shard).catalog().size(), 1u);
  ExpectRejected(follower->PreEvaluate(early, busy, late).status(), message);
  ExpectRejected(follower->PreEvaluate(busy, early, late).status(), message);
  const std::vector<PreEvaluateRequest> batch = {{early, busy, late}};
  ExpectRejected(follower->BatchPreEvaluate(batch).status(), message);

  // Second poll: the busy shard applies its second report, still short.
  ASSERT_EQ(follower->PollAll().value(), 1u);
  ExpectRejected(follower->PreEvaluate(early, busy, late).status(), message);

  // Third poll: the last shard catches up and the task becomes valid.
  ASSERT_EQ(follower->PollAll().value(), 1u);
  const auto answer = follower->PreEvaluate(early, busy, late);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer.value(), leader->PreEvaluate(early, busy, late).value());
  EXPECT_EQ(follower->Stats().pre_evaluations, 1u);

  follower.reset();
  leader.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace siot::service
