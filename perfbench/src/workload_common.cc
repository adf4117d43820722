// Copyright 2026 The siot-trust Authors.

#include "workload_common.h"

#include <algorithm>
#include <thread>

#include "common/macros.h"
#include "sim/parallel_runner.h"

namespace perfbench {

service::TrustServiceConfig ServiceConfig() {
  service::TrustServiceConfig config;
  config.shard_count = kShards;
  config.engine.beta = trust::ForgettingFactors::Uniform(0.2);
  return config;
}

service::PersistenceOptions DurableOptions(const std::string& directory) {
  service::PersistenceOptions options;
  options.directory = directory;
  options.sync_every_append = true;
  options.group_commit_window = kGroupCommitWindow;
  options.checkpoint_every_appends = kCheckpointEveryAppends;
  return options;
}

std::string DurableFlushPolicy() {
  return "binary WAL, fsync every append, group commit window " +
         std::to_string(kGroupCommitWindow.count()) + "us, checkpoint every " +
         std::to_string(kCheckpointEveryAppends) +
         " appends per shard, no checkpoint thread";
}

namespace {

const std::vector<std::pair<std::string, std::vector<trust::CharacteristicId>>>&
TaskTypes() {
  static const auto* types = new std::vector<
      std::pair<std::string, std::vector<trust::CharacteristicId>>>{
      {"gps", {0}}, {"image", {1}}, {"traffic", {0, 1}}};
  return *types;
}

}  // namespace

Status InstallCatalog(service::TrustService& service,
                      trust::AgentId agents) {
  for (const auto& [name, characteristics] : TaskTypes()) {
    const auto id = service.RegisterTask(name, characteristics);
    if (!id.ok()) return id.status();
  }
  for (trust::AgentId agent = 0; agent < agents; agent += kStrictEvery) {
    SIOT_RETURN_IF_ERROR(
        service.SetReverseThreshold(agent, trust::kNoTask, kStrictTheta));
  }
  return Status::OK();
}

void InstallCatalog(trust::TrustEngine& engine, trust::AgentId agents) {
  for (const auto& [name, characteristics] : TaskTypes()) {
    SIOT_CHECK(engine.catalog().AddUniform(name, characteristics).ok());
  }
  for (trust::AgentId agent = 0; agent < agents; agent += kStrictEvery) {
    engine.reverse_evaluator().SetThreshold(agent, trust::kNoTask,
                                            kStrictTheta);
  }
}

OpGenerator::OpGenerator(const siot::graph::Graph& graph, OpMix mix,
                         std::uint64_t seed, std::size_t client,
                         std::size_t clients)
    : graph_(graph),
      mix_(mix),
      rng_(siot::sim::DeriveStream(seed, client)),
      client_(client),
      clients_(clients),
      owned_((graph.node_count() - client + clients - 1) / clients) {
  SIOT_CHECK(owned_ > 0);
}

trust::AgentId OpGenerator::NextTrustor() {
  return static_cast<trust::AgentId>(client_ +
                                     rng_.NextBounded(owned_) * clients_);
}

trust::AgentId OpGenerator::RandomNeighbor(trust::AgentId trustor) {
  const auto neighbors = graph_.Neighbors(trustor);
  if (neighbors.empty()) {
    return static_cast<trust::AgentId>((trustor + 1) % graph_.node_count());
  }
  return neighbors[rng_.NextBounded(neighbors.size())];
}

service::OutcomeReport OpGenerator::RandomReport(trust::AgentId trustor) {
  service::OutcomeReport report;
  report.trustor = trustor;
  report.trustee = RandomNeighbor(trustor);
  report.task = static_cast<trust::TaskId>(rng_.NextBounded(kTaskCount));
  report.outcome.success = rng_.Bernoulli(0.7);
  report.outcome.gain = report.outcome.success ? rng_.NextDouble() : 0.0;
  report.outcome.damage = report.outcome.success ? 0.0 : rng_.NextDouble();
  report.outcome.cost = 0.25 * rng_.NextDouble();
  report.trustor_was_abusive = rng_.Bernoulli(0.1);
  return report;
}

void OpGenerator::Next(Op* op) {
  const trust::AgentId trustor = NextTrustor();
  const std::uint64_t roll = rng_.NextBounded(100);
  if (roll < mix_.delegate) {
    op->kind = OpKind::kDelegate;
    service::DelegationServiceRequest& request = op->delegation;
    request.trustor = trustor;
    request.task = static_cast<trust::TaskId>(rng_.NextBounded(kTaskCount));
    const auto neighbors = graph_.Neighbors(trustor);
    request.candidates.assign(neighbors.begin(), neighbors.end());
    request.self_estimates.reset();
    if (rng_.NextBounded(4) == 0) {
      request.self_estimates =
          trust::OutcomeEstimates{rng_.NextDouble(), rng_.NextDouble(),
                                  rng_.NextDouble(), rng_.NextDouble()};
    }
  } else if (roll < mix_.delegate + mix_.preevaluate) {
    op->kind = OpKind::kPreEvaluate;
    op->preevaluation.trustor = trustor;
    op->preevaluation.trustee = RandomNeighbor(trustor);
    op->preevaluation.task =
        static_cast<trust::TaskId>(rng_.NextBounded(kTaskCount));
  } else {
    op->kind = OpKind::kReport;
    op->report = RandomReport(trustor);
  }
}

void ApplyToEngine(const Op& op, trust::TrustEngine& engine,
                   AnswerDigest& digest) {
  switch (op.kind) {
    case OpKind::kDelegate: {
      const service::DelegationServiceRequest& request = op.delegation;
      digest.FoldDelegation(
          request.trustor,
          engine.RequestDelegation(request.trustor, request.task,
                                   request.candidates,
                                   request.self_estimates));
      break;
    }
    case OpKind::kPreEvaluate:
      digest.FoldDouble(op.preevaluation.trustor,
                        engine.PreEvaluate(op.preevaluation.trustor,
                                           op.preevaluation.trustee,
                                           op.preevaluation.task));
      break;
    case OpKind::kReport: {
      const service::OutcomeReport& report = op.report;
      engine.ReportOutcome(report.trustor, report.trustee, report.task,
                           report.outcome, report.trustor_was_abusive,
                           report.intermediates);
      digest.Fold(report.trustor, 1);
      break;
    }
  }
}

AnswerDigest ReferenceDigest(const siot::graph::Graph& graph, OpMix mix,
                             std::uint64_t seed,
                             const std::vector<std::uint64_t>& completed,
                             std::optional<PrewarmSpec> prewarm) {
  const std::size_t clients = completed.size();
  const auto agents = static_cast<trust::AgentId>(graph.node_count());
  std::vector<AnswerDigest> digests(clients, AnswerDigest(agents));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      trust::TrustEngine engine(ServiceConfig().engine);
      InstallCatalog(engine, agents);
      if (prewarm.has_value()) {
        ForEachPrewarmReport(
            graph, seed, *prewarm, [&](const service::OutcomeReport& report) {
              if (report.trustor % clients != c) return;
              engine.ReportOutcome(report.trustor, report.trustee,
                                   report.task, report.outcome,
                                   report.trustor_was_abusive,
                                   report.intermediates);
            });
      }
      OpGenerator generator(graph, mix, seed, c, clients);
      Op op;
      for (std::uint64_t i = 0; i < completed[c]; ++i) {
        generator.Next(&op);
        ApplyToEngine(op, engine, digests[c]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  AnswerDigest merged(agents);
  for (const AnswerDigest& digest : digests) merged.MergeDisjoint(digest);
  return merged;
}

void RecordUntraced(const TimedPhase& phase, std::int64_t start_ns,
                    std::int64_t end_ns, WindowedSamples& sink,
                    ClientRecord& record) {
  const std::uint32_t window = phase.WindowOf(end_ns);
  sink.Add(static_cast<double>(end_ns - start_ns), window);
  if (record.window_ops.size() <= window) {
    record.window_ops.resize(window + 1, 0);
  }
  ++record.window_ops[window];
  ++record.untraced_ops;
}

void IssueOp(const Op& op, service::TrustService& service, bool traced,
             ClientRecord& record, const TimedPhase* phase) {
  static constexpr std::uint64_t kFailedMarker = 0xFA11EDull;
  const char* name = "client.ReportOutcome";
  WindowedSamples* sink = &record.report_ns;
  if (op.kind == OpKind::kDelegate) {
    name = "client.RequestDelegation";
    sink = &record.delegate_ns;
  } else if (op.kind == OpKind::kPreEvaluate) {
    name = "client.PreEvaluate";
    sink = &record.preeval_ns;
  }
  const std::int64_t span =
      traced ? record.spans.Begin(name, -1, record.completed) : -1;
  const std::int64_t start = NowNs();
  switch (op.kind) {
    case OpKind::kDelegate: {
      const auto answer = service.RequestDelegation(op.delegation);
      if (record.tally.Record(answer.status())) {
        record.digest.FoldDelegation(op.delegation.trustor, answer.value());
      } else {
        record.digest.Fold(op.delegation.trustor, kFailedMarker);
      }
      break;
    }
    case OpKind::kPreEvaluate: {
      const auto answer =
          service.PreEvaluate(op.preevaluation.trustor,
                              op.preevaluation.trustee,
                              op.preevaluation.task);
      if (record.tally.Record(answer.status())) {
        record.digest.FoldDouble(op.preevaluation.trustor, answer.value());
      } else {
        record.digest.Fold(op.preevaluation.trustor, kFailedMarker);
      }
      break;
    }
    case OpKind::kReport: {
      const Status status = service.ReportOutcome(op.report);
      record.digest.Fold(op.report.trustor,
                         record.tally.Record(status) ? 1 : kFailedMarker);
      break;
    }
  }
  const std::int64_t end = NowNs();
  ++record.completed;
  if (traced) {
    record.spans.End(span);
    ++record.traced_ops;
  } else if (phase != nullptr) {
    RecordUntraced(*phase, start, end, *sink, record);
  }
}

void TimedPhase::AwaitStart() const {
  while (!started_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

void TimedPhase::Run(int seconds, bool trace) {
  start_ns_ = NowNs();
  const std::int64_t windows = static_cast<std::int64_t>(seconds) *
                               1'000'000'000 / kWindowNs;
  started_.store(true, std::memory_order_release);
  std::int64_t window_start = start_ns_;
  for (std::int64_t w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(start_ns_ + w * kWindowNs)));
    const std::int64_t now = NowNs();
    const double elapsed = static_cast<double>(now - window_start) / 1e9;
    window_s_.push_back(elapsed);
    window_traced_.push_back(tracing());
    (tracing() ? traced_s_ : untraced_s_) += elapsed;
    if (trace) tracing_.store(!tracing(), std::memory_order_relaxed);
    window_start = now;
  }
  stop_.store(true, std::memory_order_relaxed);
}

void RunClients(std::vector<OpGenerator>& generators,
                service::TrustService& service,
                std::vector<ClientRecord>& records, const Options& options,
                TimedPhase& phase) {
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < generators.size(); ++c) {
    clients.emplace_back([&, c] {
      phase.AwaitStart();
      Op op;
      while (phase.running()) {
        generators[c].Next(&op);
        IssueOp(op, service, phase.tracing(), records[c], &phase);
      }
    });
  }
  phase.Run(options.seconds, options.trace);
  for (std::thread& client : clients) client.join();
}

std::uint64_t CheckAgainstReference(
    const siot::graph::Graph& graph, OpMix mix, std::uint64_t seed,
    const std::vector<ClientRecord>& records, PrewarmSpec prewarm,
    RunResult* result) {
  std::vector<std::uint64_t> completed;
  AnswerDigest observed(graph.node_count());
  std::uint64_t operations = 0;
  for (const ClientRecord& record : records) {
    completed.push_back(record.completed);
    observed.MergeDisjoint(record.digest);
    operations += record.completed;
  }
  GateDigests(observed, ReferenceDigest(graph, mix, seed, completed, prewarm),
              result);
  return operations;
}

std::vector<double> RepeatSetup(int times,
                                const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    const std::int64_t start = NowNs();
    setup();
    seconds.push_back(SecondsSince(start));
  }
  return seconds;
}

namespace {

WindowedSamples Concat(const std::vector<ClientRecord>& records,
                       WindowedSamples ClientRecord::*field) {
  WindowedSamples all;
  for (const ClientRecord& record : records) all.Append(record.*field);
  return all;
}

}  // namespace

void AddCommonEndToEnd(const std::vector<ClientRecord>& records,
                       std::vector<double> setup_s, const TimedPhase& phase,
                       RunResult* result) {
  MetricSet& metrics = result->end_to_end;
  // High-water mark through set-up and the timed phase: the reference
  // replay and gate checks that follow are the benchmark's, not the
  // service's, memory. What the benchmark holds until here does not grow
  // with the operations completed: latencies go into fixed-size
  // histograms, and warm-up reports are fed in batches, never held whole.
  metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  const auto repetitions = static_cast<std::uint64_t>(setup_s.size());
  metrics.Add("setup_s", Median(setup_s), "s", repetitions);
  // Median over untraced windows of the window's completions per second.
  std::uint64_t ops = 0;
  std::vector<double> window_rates;
  for (std::size_t w = 0; w < phase.window_seconds().size(); ++w) {
    if (phase.window_traced()[w]) continue;
    std::uint64_t completed = 0;
    for (const ClientRecord& record : records) {
      if (w < record.window_ops.size()) completed += record.window_ops[w];
    }
    ops += completed;
    window_rates.push_back(static_cast<double>(completed) /
                           phase.window_seconds()[w]);
  }
  metrics.Add("ops_per_s", Median(window_rates), "ops/s", ops);
  metrics.AddLatency("delegate", Concat(records, &ClientRecord::delegate_ns));
  metrics.AddLatency("preeval", Concat(records, &ClientRecord::preeval_ns));
  metrics.AddLatency("report", Concat(records, &ClientRecord::report_ns));
  metrics.AddLatency("transitive",
                     Concat(records, &ClientRecord::transitive_ns));
  Histogram stale;
  for (const ClientRecord& record : records) stale.Merge(record.stale_ops);
  if (const auto median = stale.Quantile(0.5); median.has_value()) {
    metrics.Add("transitive_stale_ops_p50", *median, "ops", stale.count());
  }
}

void AddTraceOverhead(const std::vector<ClientRecord>& records,
                      const TimedPhase& phase, RunResult* result) {
  std::uint64_t untraced = 0, traced = 0;
  for (const ClientRecord& record : records) {
    untraced += record.untraced_ops;
    traced += record.traced_ops;
  }
  const double untraced_rate =
      static_cast<double>(untraced) / phase.untraced_seconds();
  const double traced_rate =
      static_cast<double>(traced) / phase.traced_seconds();
  result->per_layer.Add("trace.overhead_share",
                        1.0 - traced_rate / untraced_rate, "ratio",
                        untraced + traced);
}

void AddTallies(const std::vector<ClientRecord>& records,
                RunResult* result) {
  for (const ClientRecord& record : records) {
    result->attempted += record.tally.attempted();
    result->failed += record.tally.failed();
  }
}

void FinishTrace(const Options& options, std::vector<ClientRecord>& records,
                 SpanLog& log, RunResult* result) {
  for (ClientRecord& record : records) {
    log.Merge(record.spans);
    record.spans.Clear();
  }
  result->per_layer.Add("trace.spans",
                        static_cast<double>(log.spans().size()), "count");
  const Status written = WriteSpans(
      log.spans(), options.workdir + "/trace-" + options.workload + ".csv");
  if (!written.ok()) result->Fail(written.ToString());
}

void ForEachPrewarmReport(
    const siot::graph::Graph& graph, std::uint64_t seed, PrewarmSpec spec,
    const std::function<void(const service::OutcomeReport&)>& sink) {
  siot::Rng rng = siot::sim::DeriveStream(seed, kPrewarmStream);
  for (trust::AgentId trustor = 0; trustor < graph.node_count(); ++trustor) {
    auto neighbors = graph.Neighbors(trustor);
    if (spec.neighbors_per_trustor > 0 &&
        neighbors.size() > spec.neighbors_per_trustor) {
      neighbors = neighbors.first(spec.neighbors_per_trustor);
    }
    for (const trust::AgentId trustee : neighbors) {
      for (std::size_t k = 0; k < spec.tasks_per_edge; ++k) {
        service::OutcomeReport report;
        report.trustor = trustor;
        report.trustee = trustee;
        report.task = static_cast<trust::TaskId>(
            spec.tasks_per_edge >= kTaskCount ? k
                                              : rng.NextBounded(kTaskCount));
        report.outcome.success = rng.Bernoulli(0.7);
        report.outcome.gain = report.outcome.success ? rng.NextDouble() : 0.0;
        report.outcome.damage =
            report.outcome.success ? 0.0 : rng.NextDouble();
        report.outcome.cost = 0.25 * rng.NextDouble();
        sink(report);
      }
    }
  }
}

StatusOr<std::uint64_t> FeedPrewarm(service::TrustService& service,
                                    const siot::graph::Graph& graph,
                                    std::uint64_t seed, PrewarmSpec spec) {
  constexpr std::size_t kBatch = 1024;
  std::vector<service::OutcomeReport> batch;
  batch.reserve(kBatch);
  std::uint64_t fed = 0;
  Status status = Status::OK();
  const auto flush = [&] {
    if (status.ok() && !batch.empty()) {
      status = service.BatchReportOutcome(batch);
      fed += batch.size();
    }
    batch.clear();
  };
  ForEachPrewarmReport(graph, seed, spec,
                       [&](const service::OutcomeReport& report) {
                         batch.push_back(report);
                         if (batch.size() == kBatch) flush();
                       });
  flush();
  if (!status.ok()) return status;
  return fed;
}

}  // namespace perfbench
