// Copyright 2026 The siot-trust Authors.
// report-durable: a durable TrustService (binary WAL, fsync on every
// append, cross-shard group commit with a fixed window, count-based
// checkpoints, no timer thread) over the 347-agent Facebook stand-in,
// pre-warmed so every (trustor, neighbour, task) has a direct record.
// Four closed-loop writers run mostly ReportOutcome with RequestDelegation
// beside it: WAL encode, write, fsync, group commit and checkpoints carry
// the work, and delegation runs on the warm direct-record path — the
// opposite estimate source to delegate-mix. After the timed phase the
// leader is closed and the directory reopened (recovery_s), and the
// recovered state must equal the state before close, shard by shard.

#include <filesystem>
#include <memory>

#include "common/macros.h"
#include "graph/datasets.h"
#include "layers.h"
#include "trust/trust_store_io.h"
#include "workload_common.h"

namespace perfbench {
namespace {

constexpr std::size_t kClients = 4;
constexpr int kSetupRepeats = 5;
constexpr OpMix kMix{20, 0};  // 20% delegate, 80% report
/// Every (trustor, neighbour, task) gets a record.
constexpr PrewarmSpec kPrewarm{0, kTaskCount};

}  // namespace

RunResult RunReportDurable(const Options& options) {
  RunResult result;
  const std::string directory = options.workdir + "/report-durable";
  std::shared_ptr<const siot::graph::Graph> graph;
  std::unique_ptr<service::TrustService> service;
  std::uint64_t prewarm_reports = 0;
  std::vector<OpGenerator> generators;
  std::vector<ClientRecord> records;
  std::vector<double> generate_s;
  auto checkpoints = std::make_shared<std::atomic<std::uint64_t>>(0);
  service::PersistenceOptions persistence = DurableOptions(directory);
  if (options.trace) persistence.fault_hook = CountingCheckpointHook(checkpoints);

  const std::vector<double> setup_s = RepeatSetup(kSetupRepeats, [&] {
    generators.clear();
    records.clear();
    service.reset();
    graph.reset();
    std::filesystem::remove_all(directory);
    const std::int64_t start = NowNs();
    graph = std::make_shared<const siot::graph::Graph>(
        siot::graph::LoadDataset(siot::graph::SocialNetwork::kFacebook)
            .graph);
    generate_s.push_back(SecondsSince(start));
    auto opened = service::TrustService::Open(ServiceConfig(), persistence);
    SIOT_CHECK_MSG(opened.ok(), "%s", opened.status().ToString().c_str());
    service = std::move(opened).value();
    const auto agents = static_cast<trust::AgentId>(graph->node_count());
    SIOT_CHECK(InstallCatalog(*service, agents).ok());
    const auto fed = FeedPrewarm(*service, *graph, options.seed, kPrewarm);
    SIOT_CHECK(fed.ok());
    prewarm_reports = fed.value();
    generators.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      generators.emplace_back(*graph, kMix, options.seed, c, kClients);
      records.emplace_back(agents);
    }
  });

  checkpoints->store(0);
  const service::TrustServiceStats stats_before = service->Stats();
  TimedPhase phase;
  RunClients(generators, *service, records, options, phase);
  const service::TrustServiceStats stats_after = service->Stats();
  const std::uint64_t timed_checkpoints = checkpoints->load();

  AddTallies(records, &result);
  AddCommonEndToEnd(records, setup_s, phase, &result);

  const std::uint64_t operations = CheckAgainstReference(
      *graph, kMix, options.seed, records, kPrewarm, &result);

  // Close, reopen, compare every shard byte for byte.
  std::vector<std::string> before_close;
  for (std::size_t s = 0; s < service->shard_count(); ++s) {
    before_close.push_back(
        siot::trust::SerializeTrustEngineState(service->shard_engine(s)));
  }
  const std::uint64_t acknowledged_reports = stats_after.outcome_reports;
  service.reset();
  const std::uint64_t disk_bytes = DirectoryBytes(directory);
  const std::int64_t reopen_start = NowNs();
  auto reopened = service::TrustService::Open(ServiceConfig(),
                                              DurableOptions(directory));
  const double recovery_s = SecondsSince(reopen_start);
  if (!reopened.ok()) {
    result.Fail("recovery failed: " + reopened.status().ToString());
    return result;
  }
  service = std::move(reopened).value();
  std::size_t diverged = 0;
  for (std::size_t s = 0; s < service->shard_count(); ++s) {
    diverged += siot::trust::SerializeTrustEngineState(
                    service->shard_engine(s)) != before_close[s];
  }
  if (diverged > 0) {
    result.Fail(std::to_string(diverged) +
                    " shards recovered to a state that differs from the "
                    "state before close",
                diverged);
  }
  result.end_to_end.Add("recovery_s", recovery_s, "s");
  result.end_to_end.Add(
      "disk_bytes_per_report",
      static_cast<double>(disk_bytes) / acknowledged_reports, "B",
      acknowledged_reports);

  result.context = {
      {"agents", std::to_string(graph->node_count())},
      {"edges", std::to_string(graph->edge_count())},
      {"graph", "facebook stand-in"},
      {"shards", std::to_string(service->shard_count())},
      {"clients", std::to_string(kClients)},
      {"operations", std::to_string(operations)},
      {"prewarm_reports", std::to_string(prewarm_reports)},
      {"mix", "delegate 20%, report 80%"},
      {"flush_policy", DurableFlushPolicy()},
  };

  if (options.trace) {
    AddTraceOverhead(records, phase, &result);
    AddPersistenceCounts(stats_before, stats_after, timed_checkpoints,
                         &result);
    const LayerSample sample = DrawLayerSample(*graph, options.seed);
    SpanLog log;
    MeasureServiceLayers(*service, sample, &log, &result);
    MeasureCodecLayers(*service, sample, &log, &result);
    MeasureCheckpoint(*service, &log, &result);
    MeasureScratchPipeline(options.workdir + "/scratch-report-durable",
                           graph, sample, /*replication=*/true,
                           /*persistence=*/false, &log, &result);
    result.per_layer.Add("graph.generate_s", Median(generate_s), "s",
                         generate_s.size());
    FinishTrace(options, records, log, &result);
  }
  service.reset();
  std::filesystem::remove_all(directory);
  return result;
}

}  // namespace perfbench
