// Copyright 2026 The siot-trust Authors.
// delegate-mix: an in-memory TrustService over a 100,000-agent
// Barabási–Albert graph (m = 15: ~1.5M edges, ~30 candidates per request,
// hundreds for hub trustors). Four closed-loop clients issue single
// RequestDelegation / PreEvaluate / ReportOutcome calls, mostly reads.
// Records stay sparse, so almost every candidate falls through to the
// first-contact estimates: the trust engine's estimate path carries the
// work, and the WAL, replication and overlay layers do nothing.

#include <memory>

#include "common/macros.h"
#include "graph/generators.h"
#include "layers.h"
#include "sim/parallel_runner.h"
#include "workload_common.h"

namespace perfbench {
namespace {

constexpr std::size_t kAgents = 100'000;
constexpr std::size_t kAttach = 15;
constexpr std::size_t kClients = 4;
constexpr std::uint64_t kWarmupOps = 2000;
constexpr int kSetupRepeats = 3;
/// Pre-warm: each trustor reports on its first 4 neighbours (one random
/// task each), ~400k reports. The store then starts near the size it ends
/// at, so per-candidate cost does not drift with store growth during the
/// timed phase, and records stay sparse (4 of ~90 (trustee, task) pairs).
constexpr PrewarmSpec kPrewarm{4, 1};
constexpr OpMix kMix{70, 25};  // 70% delegate, 25% pre-evaluate, 5% report

}  // namespace

RunResult RunDelegateMix(const Options& options) {
  RunResult result;
  std::shared_ptr<const siot::graph::Graph> graph;
  std::unique_ptr<service::TrustService> service;
  std::vector<OpGenerator> generators;
  std::vector<ClientRecord> records;
  std::vector<double> generate_s;
  std::uint64_t prewarm_reports = 0;

  const std::vector<double> setup_s = RepeatSetup(kSetupRepeats, [&] {
    generators.clear();
    records.clear();
    service.reset();
    graph.reset();
    const std::int64_t start = NowNs();
    siot::Rng rng = siot::sim::DeriveStream(options.seed, kGraphStream);
    graph = std::make_shared<const siot::graph::Graph>(
        siot::graph::BarabasiAlbert(kAgents, kAttach, rng));
    generate_s.push_back(SecondsSince(start));
    service = std::make_unique<service::TrustService>(ServiceConfig());
    SIOT_CHECK(InstallCatalog(*service, kAgents).ok());
    const auto fed = FeedPrewarm(*service, *graph, options.seed, kPrewarm);
    SIOT_CHECK(fed.ok());
    prewarm_reports = fed.value();
    generators.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      generators.emplace_back(*graph, kMix, options.seed, c, kClients);
      records.emplace_back(kAgents);
      // Warm-up: the head of the client's own sequence, untimed.
      ClientRecord warm(kAgents);
      Op op;
      for (std::uint64_t i = 0; i < kWarmupOps; ++i) {
        generators[c].Next(&op);
        IssueOp(op, *service, false, warm);
      }
      records[c].completed = warm.completed;
      records[c].digest = warm.digest;
    }
  });

  TimedPhase phase;
  RunClients(generators, *service, records, options, phase);

  AddTallies(records, &result);
  AddCommonEndToEnd(records, setup_s, phase, &result);

  const std::uint64_t operations = CheckAgainstReference(
      *graph, kMix, options.seed, records, kPrewarm, &result);

  result.context = {
      {"agents", std::to_string(graph->node_count())},
      {"edges", std::to_string(graph->edge_count())},
      {"graph", "barabasi_albert m=15"},
      {"shards", std::to_string(service->shard_count())},
      {"clients", std::to_string(kClients)},
      {"operations", std::to_string(operations)},
      {"warmup_operations_per_client", std::to_string(kWarmupOps)},
      {"prewarm_reports", std::to_string(prewarm_reports)},
      {"mix", "delegate 70%, preevaluate 25%, report 5%"},
      {"records_after", std::to_string(service->Stats().record_count)},
      {"flush_policy", "in-memory (no WAL)"},
  };

  if (options.trace) {
    AddTraceOverhead(records, phase, &result);
    const LayerSample sample = DrawLayerSample(*graph, options.seed);
    SpanLog log;
    MeasureServiceLayers(*service, sample, &log, &result);
    MeasureCodecLayers(*service, sample, &log, &result);
    MeasureScratchPipeline(options.workdir + "/scratch-delegate-mix", graph,
                           sample, /*replication=*/true,
                           /*persistence=*/true, &log, &result);
    result.per_layer.Add("graph.generate_s", Median(generate_s), "s",
                         generate_s.size());
    FinishTrace(options, records, log, &result);
  }
  return result;
}

}  // namespace perfbench
