// Copyright 2026 The siot-trust Authors.
// follower-transitive: a durable leader (binary WAL, no fsync) plus an
// in-process ReplicaService that its owner drives (no poll or rebuild
// timer) over a 4,096-agent planted-community graph. One thread streams
// ReportOutcome to the leader at a fixed 4,000 per second; one loops
// PollAll then BuildOverlaySnapshot back to back; two issue
// TransitiveTrust to the follower. Replica apply, overlay assembly,
// hop-cache preparation and §4.3 transitivity carry the work; the
// delegation engine is idle. Rebuilds are untimed, so how stale an answer
// is depends on poll + rebuild cost: faster layers show as fresher
// answers. At the end the follower must serve a snapshot byte-identical
// to the leader's at the leader's WAL barrier, and a fresh follower must
// catch up to that barrier with every shard equal to the leader's.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/macros.h"
#include "graph/generators.h"
#include "layers.h"
#include "service/replication.h"
#include "sim/parallel_runner.h"
#include "trust/overlay_builder.h"
#include "trust/trust_store_io.h"
#include "workload_common.h"

namespace perfbench {
namespace {

constexpr std::size_t kAgents = 4096;
constexpr std::size_t kQueryClients = 2;
constexpr int kSetupRepeats = 5;
constexpr PrewarmSpec kPrewarm{8, 1};
constexpr std::chrono::seconds kBarrierTimeout{60};
/// The writer is a closed loop with think time: it starts at most one
/// report every 250 us (4,000 per second), about what it managed with an
/// fsync per append. A fixed stream keeps the follower's apply and
/// rebuild load the same from run to run, whatever the page cache's
/// write stalls (which the shared disk's other tenants cause) do to the
/// writer, so staleness measures how fast poll + rebuild keep up.
constexpr std::int64_t kWriterPeriodNs = 250'000;

siot::graph::CommunityGraphParams GraphParams() {
  siot::graph::CommunityGraphParams params;
  params.node_count = kAgents;
  params.community_count = 128;
  params.p_intra = 0.3;
  params.ring_bridges = 2;
  params.spoke_bridges = 2;
  params.shortcut_bridges = 64;
  return params;
}

/// The leader writes its binary WAL without fsync (checkpoints still
/// flush): the follower tails the WAL files, which the page cache serves.
/// With an fsync per append, the write path's speed would be the shared
/// disk's, which other tenants move by up to 5x between runs.
service::PersistenceOptions LeaderOptions(const std::string& directory) {
  service::PersistenceOptions options = DurableOptions(directory);
  options.sync_every_append = false;
  options.group_commit_window = std::chrono::microseconds(0);
  return options;
}

std::string LeaderFlushPolicy() {
  return "binary WAL without fsync (page cache), checkpoint every " +
         std::to_string(kCheckpointEveryAppends) +
         " appends per shard, no checkpoint thread";
}

service::ReplicaOptions FollowerOptions(
    const std::string& directory,
    std::shared_ptr<const siot::graph::Graph> graph) {
  service::ReplicaOptions options;
  options.directory = directory;
  options.overlay_graph = std::move(graph);
  options.transitivity = TransitiveParams();
  return options;
}

}  // namespace

RunResult RunFollowerTransitive(const Options& options) {
  RunResult result;
  const std::string directory = options.workdir + "/follower-transitive";
  std::shared_ptr<const siot::graph::Graph> graph;
  std::unique_ptr<service::TrustService> leader;
  std::unique_ptr<service::ReplicaService> follower;
  std::vector<double> generate_s;
  std::uint64_t prewarm_reports = 0;

  const std::vector<double> setup_s = RepeatSetup(kSetupRepeats, [&] {
    follower.reset();
    leader.reset();
    graph.reset();
    std::filesystem::remove_all(directory);
    const std::int64_t start = NowNs();
    siot::Rng rng = siot::sim::DeriveStream(options.seed, kGraphStream);
    auto generated = siot::graph::GenerateCommunityGraph(GraphParams(), rng);
    SIOT_CHECK(generated.ok());
    graph = std::make_shared<const siot::graph::Graph>(
        std::move(generated).value().graph);
    generate_s.push_back(SecondsSince(start));
    auto opened =
        service::TrustService::Open(ServiceConfig(), LeaderOptions(directory));
    SIOT_CHECK_MSG(opened.ok(), "%s", opened.status().ToString().c_str());
    leader = std::move(opened).value();
    SIOT_CHECK(InstallCatalog(*leader, kAgents).ok());
    const auto fed = FeedPrewarm(*leader, *graph, options.seed, kPrewarm);
    SIOT_CHECK(fed.ok());
    prewarm_reports = fed.value();
    auto replica = service::ReplicaService::Open(
        ServiceConfig(), FollowerOptions(directory, graph));
    SIOT_CHECK_MSG(replica.ok(), "%s", replica.status().ToString().c_str());
    follower = std::move(replica).value();
    SIOT_CHECK(follower->AwaitPositions(leader->WalPositions(),
                                        kBarrierTimeout)
                   .ok());
    SIOT_CHECK(follower->BuildOverlaySnapshot().ok());
  });

  // The writer is the only appender during the timed phase, so each
  // acknowledged report advances its shard's sequence by exactly one.
  std::vector<std::atomic<std::uint64_t>> acked(kShards);
  for (const service::ShardWalPosition& position : leader->WalPositions()) {
    acked[position.shard].store(position.last_seq);
  }

  // Records: [0] the writer, [1..] the query clients.
  std::vector<ClientRecord> records;
  for (std::size_t i = 0; i < 1 + kQueryClients; ++i) {
    records.emplace_back(kAgents);
  }
  std::vector<std::vector<std::uint64_t>> newest_version(
      kQueryClients, std::vector<std::uint64_t>(kShards, 0));
  SpanLog poller_log;
  std::vector<double> lag_samples;
  std::atomic<bool> poller_failed{false};
  std::uint64_t cycles = 0;  // poll + rebuild rounds

  TimedPhase phase;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    phase.AwaitStart();
    OpGenerator generator(*graph, {0, 0}, options.seed, 0, 1);
    Op op;
    std::int64_t due = NowNs();
    while (phase.running()) {
      // The next report is due one period after the previous one was;
      // a writer that fell behind starts now rather than in a burst.
      due = std::max(due + kWriterPeriodNs, NowNs());
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      if (!phase.running()) break;
      generator.Next(&op);
      const std::uint64_t failed_before = records[0].tally.failed();
      IssueOp(op, *leader, phase.tracing(), records[0], &phase);
      if (records[0].tally.failed() == failed_before) {
        acked[leader->ShardOf(op.report.trustor)].fetch_add(
            1, std::memory_order_release);
      }
    }
  });
  threads.emplace_back([&] {
    phase.AwaitStart();
    while (phase.running()) {
      const bool traced = phase.tracing();
      if (traced) {
        std::uint64_t lag = 0;
        for (const auto& shard : follower->ReplicationLag()) {
          lag += shard.seq_lag;
        }
        lag_samples.push_back(static_cast<double>(lag));
      }
      const std::int64_t poll =
          traced ? poller_log.Begin("replication.PollAll", -1, cycles) : -1;
      const auto applied = follower->PollAll();
      if (traced) poller_log.End(poll, applied.ok() ? applied.value() : 0);
      const std::int64_t rebuild =
          traced ? poller_log.Begin("overlay.BuildOverlaySnapshot", -1,
                                    cycles)
                 : -1;
      const Status built = follower->BuildOverlaySnapshot();
      if (traced) poller_log.End(rebuild);
      ++cycles;
      if (!applied.ok() || !built.ok()) {
        poller_failed.store(true);
        return;
      }
    }
  });
  for (std::size_t q = 0; q < kQueryClients; ++q) {
    threads.emplace_back([&, q] {
      phase.AwaitStart();
      ClientRecord& record = records[1 + q];
      std::vector<std::uint64_t>& newest = newest_version[q];
      siot::Rng rng = siot::sim::DeriveStream(options.seed, 100 + q);
      while (phase.running()) {
        const service::TransitiveTrustRequest request =
            RandomTransitiveRequest(rng, kAgents);
        const bool traced = phase.tracing();
        const std::int64_t span =
            traced ? record.spans.Begin("client.TransitiveTrust", -1,
                                        record.completed)
                   : -1;
        const std::int64_t start = NowNs();
        const auto answer = follower->TransitiveTrust(request);
        const std::int64_t end = NowNs();
        ++record.completed;
        if (traced) {
          record.spans.End(span);
          ++record.traced_ops;
        } else {
          RecordUntraced(phase, start, end, record.transitive_ns, record);
        }
        if (!record.tally.Record(answer.status())) continue;
        const auto& applied = answer.value().version.applied_seq;
        std::uint64_t stale = 0;
        for (std::size_t s = 0; s < applied.size() && s < kShards; ++s) {
          const std::uint64_t acknowledged =
              acked[s].load(std::memory_order_acquire);
          stale += acknowledged > applied[s] ? acknowledged - applied[s] : 0;
          newest[s] = std::max(newest[s], applied[s]);
        }
        if (!traced) record.stale_ops.Add(static_cast<double>(stale));
      }
    });
  }
  phase.Run(options.seconds, options.trace);
  for (std::thread& thread : threads) thread.join();
  const service::TrustServiceStats stats_after = leader->Stats();
  if (poller_failed.load()) result.Fail("follower poll or rebuild failed");

  AddTallies(records, &result);
  AddCommonEndToEnd(records, setup_s, phase, &result);

  // Gate 1: at the leader's barrier the follower's snapshot equals the
  // leader's own, and no answer was ahead of the leader.
  const std::vector<service::ShardWalPosition> barrier =
      leader->WalPositions();
  const Status caught_up = follower->AwaitPositions(barrier, kBarrierTimeout);
  const Status follower_built = follower->BuildOverlaySnapshot();
  const Status leader_armed =
      leader->EnableTransitiveServing(graph, TransitiveParams());
  const Status leader_built = leader->RebuildOverlaySnapshot();
  if (!caught_up.ok() || !follower_built.ok() || !leader_armed.ok() ||
      !leader_built.ok()) {
    result.Fail("barrier snapshot failed: " + caught_up.ToString() + " / " +
                follower_built.ToString() + " / " + leader_armed.ToString() +
                " / " + leader_built.ToString());
  } else if (siot::trust::SerializeOverlaySnapshot(
                 *follower->CurrentOverlaySnapshot()) !=
             siot::trust::SerializeOverlaySnapshot(
                 *leader->CurrentOverlaySnapshot())) {
    result.Fail("follower snapshot differs from the leader's at the barrier");
  }
  for (const service::ShardWalPosition& position : barrier) {
    for (const auto& newest : newest_version) {
      if (newest[position.shard] > position.last_seq) {
        result.Fail("an answer's version was ahead of the leader on shard " +
                    std::to_string(position.shard));
      }
    }
  }

  // Gate 2: a fresh follower catches up to the barrier, shard-identical.
  const std::int64_t catchup_start = NowNs();
  auto fresh = service::ReplicaService::Open(
      ServiceConfig(), FollowerOptions(directory, nullptr));
  Status fresh_caught_up = fresh.ok() ? fresh.value()->AwaitPositions(
                                            barrier, kBarrierTimeout)
                                      : fresh.status();
  const double catchup_s = SecondsSince(catchup_start);
  if (!fresh_caught_up.ok()) {
    result.Fail("fresh follower catch-up failed: " +
                fresh_caught_up.ToString());
  } else {
    std::size_t diverged = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      diverged += siot::trust::SerializeTrustEngineState(
                      fresh.value()->shard_engine(s)) !=
                  siot::trust::SerializeTrustEngineState(
                      leader->shard_engine(s));
    }
    if (diverged > 0) {
      result.Fail(std::to_string(diverged) +
                      " shards of a fresh follower differ from the leader",
                  diverged);
    }
    result.end_to_end.Add("catchup_s", catchup_s, "s");
  }
  result.end_to_end.Add(
      "disk_bytes_per_report",
      static_cast<double>(DirectoryBytes(directory)) /
          stats_after.outcome_reports,
      "B", stats_after.outcome_reports);

  std::uint64_t operations = 0;
  for (const ClientRecord& record : records) operations += record.completed;
  result.context = {
      {"agents", std::to_string(graph->node_count())},
      {"edges", std::to_string(graph->edge_count())},
      {"graph", "planted communities (128)"},
      {"shards", std::to_string(kShards)},
      {"clients",
       "1 writer (one report per 250 us at most), 1 poll+rebuild loop, "
       "2 transitive readers"},
      {"operations", std::to_string(operations)},
      {"prewarm_reports", std::to_string(prewarm_reports)},
      {"poll_rebuild_cycles", std::to_string(cycles)},
      {"mix", "transitive traditional 20%, conservative 30%, aggressive 50%"},
      {"flush_policy", LeaderFlushPolicy()},
  };

  if (options.trace) {
    AddTraceOverhead(records, phase, &result);
    AddReplicationMetrics(poller_log.spans(), std::move(lag_samples),
                          follower->OverlayInfo(), &result);
    const LayerSample sample = DrawLayerSample(*graph, options.seed);
    SpanLog log;
    log.Merge(poller_log);
    MeasureTransitiveLayers(*follower, sample, &log, &result);
    MeasureServiceLayers(*leader, sample, &log, &result);
    MeasureCodecLayers(*leader, sample, &log, &result);
    MeasureScratchPipeline(options.workdir + "/scratch-follower-transitive",
                           graph, sample, /*replication=*/false,
                           /*persistence=*/true, &log, &result);
    result.per_layer.Add("graph.generate_s", Median(generate_s), "s",
                         generate_s.size());
    FinishTrace(options, records, log, &result);
  }
  if (fresh.ok()) fresh.value().reset();
  follower.reset();
  leader.reset();
  std::filesystem::remove_all(directory);
  return result;
}

}  // namespace perfbench
