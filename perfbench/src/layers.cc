// Copyright 2026 The siot-trust Authors.

#include "layers.h"

#include <algorithm>
#include <atomic>
#include <filesystem>

#include "common/rng.h"
#include "service/checkpoint_codec.h"
#include "service/persistence.h"
#include "service/wal_codec.h"
#include "sim/parallel_runner.h"
#include "trust/inference.h"
#include "trust/update.h"
#include "workload_common.h"

namespace perfbench {
namespace {

constexpr std::size_t kSampleDelegations = 2000;
constexpr std::size_t kSamplePreevaluations = 2000;
constexpr std::size_t kSampleReports = 4000;
constexpr std::size_t kSampleTransitive = 150;
constexpr std::size_t kScratchChunk = 250;
/// The scratch follower rebuilds its overlay after every this many chunks.
constexpr std::size_t kScratchRebuildEvery = 4;
constexpr std::size_t kFsyncProbes = 64;
/// Sample trustors are routed this many times per route span.
constexpr std::size_t kRouteRepeats = 64;

/// Keeps a computed value observable so the call producing it is kept.
std::atomic<std::uint64_t> g_sink{0};
void Keep(std::uint64_t value) {
  g_sink.fetch_add(value, std::memory_order_relaxed);
}

double MedianOr0(std::map<std::string, std::vector<double>>& by_name,
                 const std::string& name) {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : Median(it->second);
}

std::uint64_t SampleCount(const std::map<std::string, std::vector<double>>& m,
                          const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0 : static_cast<std::uint64_t>(it->second.size());
}

/// Σ duration / Σ items of the spans called `name`, and Σ items.
std::pair<double, double> PerItemNs(const std::vector<Span>& spans,
                                    const std::string& name) {
  const auto totals = ItemTotalsByName(spans);
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.first == 0) return {0.0, 0.0};
  return {it->second.second / it->second.first, it->second.first};
}

bool SameDelegation(const trust::DelegationRequestResult& a,
                    const trust::DelegationRequestResult& b) {
  return a.trustee == b.trustee && a.no_candidates == b.no_candidates &&
         a.unavailable == b.unavailable &&
         a.self_execution == b.self_execution &&
         a.trustworthiness == b.trustworthiness &&
         a.expected_profit == b.expected_profit && a.refusals == b.refusals;
}

/// Times `upper` (a service call) and `lower` (the layer below it, on
/// the same inputs) as a span and its child, and returns both answers.
/// One untimed call of `lower` warms the caches, then the two alternate
/// which runs first with the parity of `request`: neither side has the
/// warm-cache advantage, so "upper minus child" is not a cache-warmth
/// difference.
template <typename Upper, typename Lower>
auto TimeWithChild(SpanLog* log, const char* upper_name,
                   const char* lower_name, std::uint64_t request,
                   Upper&& upper, Lower&& lower) {
  lower();
  std::int64_t upper_span = -1, lower_span = -1;
  if (request % 2 == 0) {
    auto served = log->Time(upper_name, -1, request, upper, &upper_span);
    auto below = log->Time(lower_name, -1, request, lower, &lower_span);
    log->SetParent(lower_span, upper_span);
    return std::pair(std::move(served), std::move(below));
  }
  auto below = log->Time(lower_name, -1, request, lower, &lower_span);
  auto served = log->Time(upper_name, -1, request, upper, &upper_span);
  log->SetParent(lower_span, upper_span);
  return std::pair(std::move(served), std::move(below));
}

const char* MethodSpanName(trust::TransitivityMethod method) {
  switch (method) {
    case trust::TransitivityMethod::kTraditional:
      return "transitivity.traditional";
    case trust::TransitivityMethod::kConservative:
      return "transitivity.conservative";
    case trust::TransitivityMethod::kAggressive:
      return "transitivity.aggressive";
  }
  return "transitivity.unknown";
}

}  // namespace

LayerSample DrawLayerSample(const siot::graph::Graph& graph,
                            std::uint64_t seed) {
  // Stream ids far above any client index.
  const std::uint64_t layer_seed = siot::sim::DeriveStream(seed, 1 << 20)
                                       .Next();
  LayerSample sample;
  Op op;
  OpGenerator delegations(graph, {100, 0}, layer_seed, 0, 1);
  for (std::size_t i = 0; i < kSampleDelegations; ++i) {
    delegations.Next(&op);
    sample.delegations.push_back(op.delegation);
  }
  OpGenerator preevaluations(graph, {0, 100}, layer_seed + 1, 0, 1);
  for (std::size_t i = 0; i < kSamplePreevaluations; ++i) {
    preevaluations.Next(&op);
    sample.preevaluations.push_back(op.preevaluation);
  }
  OpGenerator reports(graph, {0, 0}, layer_seed + 2, 0, 1);
  for (std::size_t i = 0; i < kSampleReports; ++i) {
    reports.Next(&op);
    sample.reports.push_back(op.report);
  }
  siot::Rng rng(layer_seed + 3);
  for (std::size_t i = 0; i < kSampleTransitive; ++i) {
    sample.transitive.push_back(RandomTransitiveRequest(
        rng, static_cast<trust::AgentId>(graph.node_count())));
  }
  return sample;
}

trust::TransitivityParams TransitiveParams() {
  trust::TransitivityParams params;
  params.omega1 = 0.5;
  params.omega2 = 0.0;
  params.max_hops = 4;
  return params;
}

service::TransitiveTrustRequest RandomTransitiveRequest(
    siot::Rng& rng, trust::AgentId agents) {
  service::TransitiveTrustRequest request;
  request.trustor = static_cast<trust::AgentId>(rng.NextBounded(agents));
  request.task = static_cast<trust::TaskId>(rng.NextBounded(kTaskCount));
  const std::uint64_t roll = rng.NextBounded(10);
  request.method = roll < 2   ? trust::TransitivityMethod::kTraditional
                   : roll < 5 ? trust::TransitivityMethod::kConservative
                              : trust::TransitivityMethod::kAggressive;
  return request;
}

void MeasureServiceLayers(const service::TrustService& service,
                          const LayerSample& sample, SpanLog* out_log,
                          RunResult* result) {
  SpanLog local;
  SpanLog* const log = &local;
  std::uint64_t direct = 0, eq4 = 0, initial = 0, probes = 0;
  std::uint64_t walked = 0, refused = 0, decisions = 0;
  std::size_t mismatches = 0;
  std::vector<std::vector<trust::AgentId>> candidate_sets;
  for (std::size_t i = 0; i < sample.delegations.size(); ++i) {
    const service::DelegationServiceRequest& request = sample.delegations[i];
    const trust::TrustEngine& engine =
        service.shard_engine(service.ShardOf(request.trustor));
    const auto [served, answer] = TimeWithChild(
        log, "trust_service.RequestDelegation",
        "trust_engine.RequestDelegation", i,
        [&] { return service.RequestDelegation(request); },
        [&] {
          return engine.RequestDelegation(request.trustor, request.task,
                                          request.candidates,
                                          request.self_estimates);
        });
    if (!served.ok() || !SameDelegation(served.value(), answer)) {
      ++mismatches;
    }

    // The engine's candidate order: ascending agent id, trustor dropped.
    std::vector<trust::AgentId> candidates;
    for (const trust::AgentId candidate : request.candidates) {
      if (candidate != request.trustor) candidates.push_back(candidate);
    }
    std::sort(candidates.begin(), candidates.end());
    std::vector<trust::OutcomeEstimates> estimates;
    estimates.reserve(candidates.size());
    const std::int64_t estimate_span =
        log->Begin("trust_engine.EstimateOutcomes", -1, i);
    for (const trust::AgentId candidate : candidates) {
      estimates.push_back(
          engine.EstimateOutcomes(request.trustor, candidate, request.task));
    }
    log->End(estimate_span, candidates.size());

    std::vector<trust::AgentId> without_record;
    for (const trust::AgentId candidate : candidates) {
      if (engine.DirectTrustworthiness(request.trustor, candidate,
                                       request.task)
              .has_value()) {
        ++direct;
      } else {
        without_record.push_back(candidate);
      }
    }
    const trust::Task& task = engine.catalog().Get(request.task);
    std::uint64_t covered = 0;
    const std::int64_t probe_span =
        log->Begin("inference.InferFromStore", -1, i);
    for (const trust::AgentId candidate : without_record) {
      covered += trust::InferFromStore(engine.catalog(), engine.store(),
                                       engine.normalizer(), request.trustor,
                                       candidate, task)
                     .ok();
    }
    log->End(probe_span, without_record.size());
    eq4 += covered;
    initial += without_record.size() - covered;
    probes += without_record.size();
    candidate_sets.push_back(std::move(candidates));

    const auto order =
        log->Time("update.RankCandidates", -1, i, [&] {
          return trust::RankCandidates(estimates, engine.config().strategy);
        });
    Keep(order.size());

    if (!answer.no_candidates) {
      const bool visited_one_more =
          !answer.unavailable && answer.trustee != trust::kNoAgent;
      walked += answer.refusals.size() + (visited_one_more ? 1 : 0);
      refused += answer.refusals.size();
      ++decisions;
    }
  }
  for (std::size_t i = 0; i < sample.preevaluations.size(); ++i) {
    const service::PreEvaluateRequest& request = sample.preevaluations[i];
    const trust::TrustEngine& engine =
        service.shard_engine(service.ShardOf(request.trustor));
    const auto [served, value] = TimeWithChild(
        log, "trust_service.PreEvaluate", "trust_engine.PreEvaluate", i,
        [&] {
          return service.PreEvaluate(request.trustor, request.trustee,
                                     request.task);
        },
        [&] {
          return engine.PreEvaluate(request.trustor, request.trustee,
                                    request.task);
        });
    if (!served.ok() || served.value() != value) ++mismatches;
  }
  if (mismatches > 0) {
    result->Fail(std::to_string(mismatches) +
                     " sampled requests answered differently by the service "
                     "and by its shard engine",
                 mismatches);
  }
  // Probes that failed, and probes made: the candidates without a record.
  std::uint64_t missed = initial, probed = probes;
  if (probes == 0) {
    // Every candidate had a direct record (a fully pre-warmed store), so
    // the delegation path never probed Eq. 4. Probe every candidate
    // instead, so the layer still has a cost and a miss share here.
    for (std::size_t i = 0; i < sample.delegations.size(); ++i) {
      const service::DelegationServiceRequest& request =
          sample.delegations[i];
      const trust::TrustEngine& engine =
          service.shard_engine(service.ShardOf(request.trustor));
      const trust::Task& task = engine.catalog().Get(request.task);
      std::uint64_t inferred = 0;
      const std::int64_t probe_span =
          log->Begin("inference.InferFromStore", -1, i);
      for (const trust::AgentId candidate : candidate_sets[i]) {
        inferred += trust::InferFromStore(engine.catalog(), engine.store(),
                                          engine.normalizer(),
                                          request.trustor, candidate, task)
                        .ok();
      }
      log->End(probe_span, candidate_sets[i].size());
      probed += candidate_sets[i].size();
      missed += candidate_sets[i].size() - inferred;
    }
  }

  const std::int64_t route_span =
      log->Begin("trust_service.ShardIndexForTrustor", -1, 0);
  std::uint64_t routed = 0;
  for (std::size_t r = 0; r < kRouteRepeats; ++r) {
    for (const auto& request : sample.delegations) {
      routed += service::ShardIndexForTrustor(request.trustor + r,
                                              service.shard_count());
    }
  }
  log->End(route_span, kRouteRepeats * sample.delegations.size());
  Keep(routed);

  // Reports mutate: replay them on a copy of shard 0's engine.
  trust::TrustEngine scratch = service.shard_engine(0);
  for (std::size_t i = 0; i < sample.reports.size(); ++i) {
    const service::OutcomeReport& report = sample.reports[i];
    if (service.ShardOf(report.trustor) != 0) continue;
    log->Time("trust_engine.ReportOutcome", -1, i, [&] {
      scratch.ReportOutcome(report.trustor, report.trustee, report.task,
                            report.outcome, report.trustor_was_abusive,
                            report.intermediates);
    });
  }

  auto self = SelfTimesByName(log->spans());
  auto durations = DurationsByName(log->spans());
  MetricSet& m = result->per_layer;
  m.Add("trust_service.delegate_self_us",
        MedianOr0(self, "trust_service.RequestDelegation") / 1e3, "us",
        SampleCount(self, "trust_service.RequestDelegation"));
  m.Add("trust_service.preeval_self_ns",
        MedianOr0(self, "trust_service.PreEvaluate"), "ns",
        SampleCount(self, "trust_service.PreEvaluate"));
  const auto [route_ns, route_items] =
      PerItemNs(log->spans(), "trust_service.ShardIndexForTrustor");
  m.Add("trust_service.route_ns", route_ns, "ns",
        static_cast<std::uint64_t>(route_items));
  m.Add("trust_engine.delegate_us",
        MedianOr0(durations, "trust_engine.RequestDelegation") / 1e3, "us",
        SampleCount(durations, "trust_engine.RequestDelegation"));
  const auto [estimate_ns, estimates] =
      PerItemNs(log->spans(), "trust_engine.EstimateOutcomes");
  m.Add("trust_engine.estimate_ns", estimate_ns, "ns",
        static_cast<std::uint64_t>(estimates));
  m.Add("trust_engine.candidates_per_delegate",
        estimates / static_cast<double>(sample.delegations.size()), "count",
        sample.delegations.size());
  m.Add("trust_engine.preeval_ns",
        MedianOr0(durations, "trust_engine.PreEvaluate"), "ns",
        SampleCount(durations, "trust_engine.PreEvaluate"));
  m.Add("trust_engine.report_us",
        MedianOr0(durations, "trust_engine.ReportOutcome") / 1e3, "us",
        SampleCount(durations, "trust_engine.ReportOutcome"));
  const double sourced = static_cast<double>(direct + eq4 + initial);
  const auto total = static_cast<std::uint64_t>(sourced);
  m.Add("trust_engine.source_direct_share",
        sourced > 0 ? static_cast<double>(direct) / sourced : 0.0, "ratio",
        total);
  m.Add("trust_engine.source_eq4_share",
        sourced > 0 ? static_cast<double>(eq4) / sourced : 0.0, "ratio",
        total);
  m.Add("trust_engine.source_initial_share",
        sourced > 0 ? static_cast<double>(initial) / sourced : 0.0, "ratio",
        total);
  const auto [probe_ns, probe_items] =
      PerItemNs(log->spans(), "inference.InferFromStore");
  m.Add("inference.probe_ns", probe_ns, "ns",
        static_cast<std::uint64_t>(probe_items));
  m.Add("inference.miss_share",
        probed > 0 ? static_cast<double>(missed) / probed : 0.0, "ratio",
        probed);
  m.Add("update.rank_us", MedianOr0(durations, "update.RankCandidates") / 1e3,
        "us", SampleCount(durations, "update.RankCandidates"));
  m.Add("delegation.walk_len",
        decisions > 0 ? static_cast<double>(walked) / decisions : 0.0,
        "count", decisions);
  m.Add("delegation.refused_share",
        walked > 0 ? static_cast<double>(refused) / walked : 0.0, "ratio",
        walked);
  out_log->Merge(local);
}

void MeasureCodecLayers(const service::TrustService& service,
                        const LayerSample& sample, SpanLog* out_log,
                        RunResult* result) {
  SpanLog local;
  SpanLog* const log = &local;
  std::vector<std::string> payloads;
  payloads.reserve(sample.reports.size());
  std::uint64_t bytes = 0;
  const std::int64_t encode_span =
      log->Begin("wal_codec.EncodeOutcomeOpBinary", -1, 0);
  for (const service::OutcomeReport& report : sample.reports) {
    payloads.push_back(service::EncodeOutcomeOpBinary(
        report.trustor, report.trustee, report.task, report.outcome,
        report.trustor_was_abusive, report.intermediates));
  }
  log->End(encode_span, payloads.size());
  for (const std::string& payload : payloads) bytes += payload.size();
  std::size_t undecodable = 0;
  const std::int64_t decode_span =
      log->Begin("wal_codec.DecodeAnyVersion", -1, 0);
  for (const std::string& payload : payloads) {
    undecodable += !service::DecodeAnyVersion(payload).ok();
  }
  log->End(decode_span, payloads.size());
  if (undecodable > 0) {
    result->Fail(std::to_string(undecodable) +
                     " encoded reports failed to decode",
                 undecodable);
  }

  double encode_ns = 0, decode_ns = 0;
  std::uint64_t checkpoint_bytes = 0, records = 0;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const trust::TrustEngine& engine = service.shard_engine(s);
    records += engine.store().size();
    std::int64_t span = -1;
    const std::string encoded = log->Time(
        "checkpoint_codec.EncodeCheckpointBinary", -1, s,
        [&] {
          return service::EncodeCheckpointBinary(0, engine, nullptr);
        },
        &span);
    encode_ns += static_cast<double>(log->spans()[span].duration_ns());
    checkpoint_bytes += encoded.size();
    trust::TrustEngine restored(ServiceConfig().engine);
    std::uint64_t applied_seq = 0;
    const Status decoded = log->Time(
        "checkpoint_codec.DecodeCheckpoint", -1, s,
        [&] {
          return service::DecodeCheckpoint(encoded, "scratch", &applied_seq,
                                           &restored);
        },
        &span);
    decode_ns += static_cast<double>(log->spans()[span].duration_ns());
    if (!decoded.ok()) {
      result->Fail("checkpoint of shard " + std::to_string(s) +
                   " failed to decode: " + decoded.ToString());
    }
  }

  MetricSet& m = result->per_layer;
  const auto [encode_per, encoded] =
      PerItemNs(log->spans(), "wal_codec.EncodeOutcomeOpBinary");
  m.Add("wal_codec.encode_ns", encode_per, "ns",
        static_cast<std::uint64_t>(encoded));
  m.Add("wal_codec.bytes_per_report",
        payloads.empty() ? 0.0
                         : static_cast<double>(bytes) / payloads.size(),
        "B", payloads.size());
  const auto [decode_per, decoded_items] =
      PerItemNs(log->spans(), "wal_codec.DecodeAnyVersion");
  m.Add("wal_codec.decode_ns", decode_per, "ns",
        static_cast<std::uint64_t>(decoded_items));
  m.Add("checkpoint_codec.encode_ms", encode_ns / 1e6, "ms",
        service.shard_count());
  m.Add("checkpoint_codec.decode_ms", decode_ns / 1e6, "ms",
        service.shard_count());
  m.Add("checkpoint_codec.bytes_per_record",
        records > 0 ? static_cast<double>(checkpoint_bytes) / records : 0.0,
        "B", records);
  out_log->Merge(local);
}

void MeasureScratchPipeline(const std::string& directory,
                            std::shared_ptr<const siot::graph::Graph> graph,
                            const LayerSample& sample, bool replication,
                            bool persistence, SpanLog* log,
                            RunResult* result) {
  std::error_code ignored;
  std::filesystem::remove_all(directory, ignored);
  std::filesystem::create_directories(directory, ignored);
  MetricSet& m = result->per_layer;
  const auto fail = [&](const std::string& what, const Status& status) {
    result->Fail("scratch pipeline: " + what + ": " + status.ToString());
  };

  {
    // Device baseline: one frame appended and fsynced per probe.
    service::WalWriter writer;
    const Status opened = writer.Open(directory + "/fsync-probe.wal", 0);
    if (!opened.ok()) return fail("open fsync probe", opened);
    const service::OutcomeReport& report = sample.reports.front();
    const std::vector<std::string> payload = {service::EncodeOutcomeOpBinary(
        report.trustor, report.trustee, report.task, report.outcome,
        report.trustor_was_abusive, report.intermediates)};
    std::vector<double> fsync_ns;
    for (std::size_t i = 0; i < kFsyncProbes; ++i) {
      std::int64_t span = -1;
      const Status appended = log->Time(
          "persistence.WalWriter.Append", -1, i,
          [&] { return writer.Append(payload, i + 1, true, {}, 0); }, &span);
      if (!appended.ok()) return fail("fsync probe", appended);
      fsync_ns.push_back(
          static_cast<double>(log->spans()[span].duration_ns()));
    }
    m.Add("persistence.fsync_us", Median(fsync_ns) / 1e3, "us",
          kFsyncProbes);
  }

  service::PersistenceOptions options = DurableOptions(directory + "/leader");
  options.checkpoint_every_appends = 0;
  auto checkpoints = std::make_shared<std::atomic<std::uint64_t>>(0);
  if (persistence) options.fault_hook = CountingCheckpointHook(checkpoints);
  auto opened = service::TrustService::Open(ServiceConfig(), options);
  if (!opened.ok()) return fail("open leader", opened.status());
  std::unique_ptr<service::TrustService> leader = std::move(opened).value();
  // Tasks only: thresholds would log one admin frame per shard each.
  if (const Status installed = InstallCatalog(*leader, 0); !installed.ok()) {
    return fail("register tasks", installed);
  }
  const auto wal_bytes = [&] {
    std::uint64_t total = 0;
    for (const auto& position : leader->WalPositions()) {
      total += position.wal_bytes;
    }
    return total;
  };
  const std::uint64_t bytes_before = wal_bytes();
  const service::TrustServiceStats stats_before = leader->Stats();

  std::unique_ptr<service::ReplicaService> follower;
  if (replication) {
    service::ReplicaOptions replica;
    replica.directory = options.directory;
    replica.overlay_graph = graph;
    replica.transitivity = TransitiveParams();
    auto replica_opened = service::ReplicaService::Open(ServiceConfig(),
                                                        replica);
    if (!replica_opened.ok()) {
      return fail("open follower", replica_opened.status());
    }
    follower = std::move(replica_opened).value();
  }

  std::vector<double> lag;
  SpanLog replication_log;
  std::size_t chunk_index = 0;
  for (std::size_t begin = 0; begin < sample.reports.size();
       begin += kScratchChunk, ++chunk_index) {
    const std::size_t end =
        std::min(begin + kScratchChunk, sample.reports.size());
    const Status fed = leader->BatchReportOutcome(
        std::span(sample.reports).subspan(begin, end - begin));
    if (!fed.ok()) return fail("feed reports", fed);
    if (!follower) continue;
    std::uint64_t seq_lag = 0;
    for (const auto& shard : follower->ReplicationLag()) {
      seq_lag += shard.seq_lag;
    }
    lag.push_back(static_cast<double>(seq_lag));
    const std::int64_t poll =
        replication_log.Begin("replication.PollAll", -1, chunk_index);
    const auto applied = follower->PollAll();
    replication_log.End(poll, applied.ok() ? applied.value() : 0);
    if (!applied.ok()) return fail("poll", applied.status());
    if ((chunk_index + 1) % kScratchRebuildEvery == 0) {
      const Status built = replication_log.Time(
          "overlay.BuildOverlaySnapshot", -1, chunk_index,
          [&] { return follower->BuildOverlaySnapshot(); });
      if (!built.ok()) return fail("rebuild", built);
    }
  }
  if (persistence) {
    AddPersistenceCounts(stats_before, leader->Stats(), checkpoints->load(),
                         result);
  }
  m.Add("persistence.wal_bytes_per_report",
        static_cast<double>(wal_bytes() - bytes_before) /
            sample.reports.size(),
        "B", sample.reports.size());

  double read_ns = 0, replay_ns = 0;
  std::uint64_t replayed = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    std::int64_t span = -1;
    const auto contents = log->Time(
        "persistence.ReadWal", -1, s,
        [&] { return service::ReadWal(service::ShardWalPath(
                  options.directory, s)); },
        &span);
    read_ns += static_cast<double>(log->spans()[span].duration_ns());
    if (!contents.ok()) return fail("read wal", contents.status());
    trust::TrustEngine engine(ServiceConfig().engine);
    std::size_t rejected = 0;
    span = log->Begin("persistence.ApplyWalOp", -1, s);
    for (const service::WalEntry& entry : contents.value().entries) {
      rejected += !service::ApplyWalOp(entry.payload, &engine).ok();
    }
    log->End(span, contents.value().entries.size());
    replay_ns += static_cast<double>(log->spans()[span].duration_ns());
    replayed += contents.value().entries.size();
    if (rejected > 0) {
      result->Fail(std::to_string(rejected) +
                       " scratch WAL ops were rejected on replay",
                   rejected);
    }
  }
  m.Add("persistence.read_wal_ms", read_ns / 1e6, "ms", kShards);
  m.Add("persistence.replay_us_per_op",
        replayed > 0 ? replay_ns / replayed / 1e3 : 0.0, "us", replayed);

  if (persistence) MeasureCheckpoint(*leader, log, result);

  if (follower) {
    const auto applied = follower->PollAll();
    const Status built = follower->BuildOverlaySnapshot();
    if (!applied.ok() || !built.ok()) {
      return fail("final poll/rebuild",
                  applied.ok() ? built : applied.status());
    }
    AddReplicationMetrics(replication_log.spans(), std::move(lag),
                          follower->OverlayInfo(), result);
    MeasureTransitiveLayers(*follower, sample, log, result);
    log->Merge(replication_log);
    follower.reset();
  }
  leader.reset();
  std::filesystem::remove_all(directory, ignored);
}

void MeasureTransitiveLayers(const service::ReplicaService& follower,
                             const LayerSample& sample, SpanLog* log,
                             RunResult* result) {
  const auto snapshot = follower.CurrentOverlaySnapshot();
  if (snapshot == nullptr) {
    result->Fail("no published overlay snapshot to decompose");
    return;
  }
  trust::TransitivitySearch search(snapshot->snapshot(), snapshot->catalog(),
                                   TransitiveParams());
  std::vector<trust::TaskId> tasks;
  for (trust::TaskId id = 0; id < snapshot->catalog().size(); ++id) {
    tasks.push_back(id);
  }
  search.PrepareTasks(tasks);
  search.Seal();
  SpanLog local;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < sample.transitive.size(); ++i) {
    const service::TransitiveTrustRequest& request = sample.transitive[i];
    const auto [served, direct] = TimeWithChild(
        &local, "overlay_serving.TransitiveTrust",
        MethodSpanName(request.method), i,
        [&] { return follower.TransitiveTrust(request); },
        [&] {
          return search.FindPotentialTrustees(
              request.trustor, snapshot->catalog().Get(request.task),
              request.method);
        });
    bool same = served.ok() &&
                served.value().result.trustees.size() ==
                    direct.trustees.size() &&
                served.value().version == snapshot->version();
    for (std::size_t t = 0; same && t < direct.trustees.size(); ++t) {
      same = served.value().result.trustees[t].agent ==
                 direct.trustees[t].agent &&
             served.value().result.trustees[t].trustworthiness ==
                 direct.trustees[t].trustworthiness;
    }
    mismatches += !same;
  }
  if (mismatches > 0) {
    result->Fail(std::to_string(mismatches) +
                     " transitive answers differ from a search of the same "
                     "snapshot",
                 mismatches);
  }
  auto self = SelfTimesByName(local.spans());
  auto durations = DurationsByName(local.spans());
  MetricSet& m = result->per_layer;
  m.Add("overlay_serving.query_self_us",
        MedianOr0(self, "overlay_serving.TransitiveTrust") / 1e3, "us",
        SampleCount(self, "overlay_serving.TransitiveTrust"));
  for (const auto method : {trust::TransitivityMethod::kTraditional,
                            trust::TransitivityMethod::kConservative,
                            trust::TransitivityMethod::kAggressive}) {
    const std::string span = MethodSpanName(method);
    m.Add(span + "_us", MedianOr0(durations, span) / 1e3, "us",
          SampleCount(durations, span));
  }
  log->Merge(local);
}

void AddReplicationMetrics(const std::vector<Span>& spans,
                           std::vector<double> lag_samples,
                           const service::OverlaySnapshotInfo& info,
                           RunResult* result) {
  std::vector<double> poll_ns, rebuild_ns;
  double frames = 0, busy_poll_ns = 0;
  for (const Span& span : spans) {
    const std::string name = span.name;
    if (name == "replication.PollAll") {
      poll_ns.push_back(static_cast<double>(span.duration_ns()));
      frames += static_cast<double>(span.items);
      if (span.items > 0) {
        busy_poll_ns += static_cast<double>(span.duration_ns());
      }
    } else if (name == "overlay.BuildOverlaySnapshot") {
      rebuild_ns.push_back(static_cast<double>(span.duration_ns()));
    }
  }
  MetricSet& m = result->per_layer;
  const auto polls = static_cast<std::uint64_t>(poll_ns.size());
  const auto rebuilds = static_cast<std::uint64_t>(rebuild_ns.size());
  const auto lag_count = static_cast<std::uint64_t>(lag_samples.size());
  m.Add("replication.poll_ms", Median(poll_ns) / 1e6, "ms", polls);
  m.Add("replication.frames_per_poll",
        polls > 0 ? frames / static_cast<double>(polls) : 0.0, "count",
        polls);
  m.Add("replication.apply_us_per_frame",
        frames > 0 ? busy_poll_ns / frames / 1e3 : 0.0, "us",
        static_cast<std::uint64_t>(frames));
  m.Add("replication.lag_seq_p50", Median(lag_samples), "ops", lag_count);
  m.Add("overlay.rebuild_ms", Median(rebuild_ns) / 1e6, "ms", rebuilds);
  m.Add("overlay.rebuilds", static_cast<double>(rebuilds), "count");
  m.Add("overlay.directed_edges",
        static_cast<double>(info.directed_edge_count), "count");
}

void AddPersistenceCounts(const service::TrustServiceStats& before,
                          const service::TrustServiceStats& after,
                          std::uint64_t checkpoints, RunResult* result) {
  const double reports =
      static_cast<double>(after.outcome_reports - before.outcome_reports);
  const double requests = static_cast<double>(after.wal_sync_requests -
                                              before.wal_sync_requests);
  const double fsyncs =
      static_cast<double>(after.wal_fsyncs - before.wal_fsyncs);
  const double coalesced = static_cast<double>(after.wal_syncs_coalesced -
                                               before.wal_syncs_coalesced);
  MetricSet& m = result->per_layer;
  const auto report_count = static_cast<std::uint64_t>(reports);
  m.Add("persistence.fsyncs_per_report", reports > 0 ? fsyncs / reports : 0,
        "count", report_count);
  m.Add("persistence.coalesced_share",
        requests > 0 ? coalesced / requests : 0.0, "ratio",
        static_cast<std::uint64_t>(requests));
  m.Add("persistence.checkpoints", static_cast<double>(checkpoints), "count");
}

void MeasureCheckpoint(service::TrustService& service, SpanLog* log,
                       RunResult* result) {
  std::int64_t span = -1;
  const Status checkpointed = log->Time(
      "persistence.Checkpoint", -1, 0, [&] { return service.Checkpoint(); },
      &span);
  if (!checkpointed.ok()) {
    result->Fail("checkpoint failed: " + checkpointed.ToString());
  }
  result->per_layer.Add(
      "persistence.checkpoint_ms",
      static_cast<double>(log->spans()[span].duration_ns()) / 1e6, "ms");
}

service::FaultHook CountingCheckpointHook(
    std::shared_ptr<std::atomic<std::uint64_t>> counter) {
  return [counter](service::PersistStage stage, std::size_t) {
    if (stage == service::PersistStage::kCheckpointBeforeRename) {
      counter->fetch_add(1, std::memory_order_relaxed);
    }
    return Status::OK();
  };
}

}  // namespace perfbench
