// Copyright 2026 The siot-trust Authors.
// The traced run's per-layer decomposition. Every metric is timed around
// a public call the benchmark makes into one layer, or counted from a
// public accessor, while the measured services are quiescent: the
// caller-synchronised shard_engine() is only read then. Calls that
// mutate state run on scratch copies (a copied TrustEngine, engines
// restored through DecodeCheckpoint or ApplyWalOp, a WalWriter and a
// scratch leader in the run's work directory), so the measured service's
// state and digest stay intact.
//
// Layers a workload does not exercise itself (the WAL under the
// in-memory delegate-mix, replication and overlays under the two
// leader-only workloads) are measured on a scratch durable leader and
// follower fed with a sample of the workload's own reports over the
// workload's own graph.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "harness.h"
#include "service/overlay_serving.h"
#include "service/replication.h"
#include "service/trust_service.h"
#include "tracer.h"
#include "trust/transitivity.h"

namespace perfbench {

/// Requests the decomposition replays, drawn from the workload's graph
/// with a seed stream of its own (not any client's).
struct LayerSample {
  std::vector<siot::service::DelegationServiceRequest> delegations;
  std::vector<siot::service::PreEvaluateRequest> preevaluations;
  std::vector<siot::service::OutcomeReport> reports;
  std::vector<siot::service::TransitiveTrustRequest> transitive;
};

LayerSample DrawLayerSample(const siot::graph::Graph& graph,
                            std::uint64_t seed);

/// §4.3 search parameters of every transitive read path here.
siot::trust::TransitivityParams TransitiveParams();

/// A fixed mix of TransitiveTrust requests: 20% traditional, 30%
/// conservative, 50% aggressive, over random trustors and tasks.
siot::service::TransitiveTrustRequest RandomTransitiveRequest(
    siot::Rng& rng, siot::trust::AgentId agents);

/// trust_service.*, trust_engine.*, inference.*, update.* and
/// delegation.* on a quiescent service. Also checks that service and
/// engine answer the same inputs identically.
void MeasureServiceLayers(const siot::service::TrustService& service,
                          const LayerSample& sample, SpanLog* log,
                          RunResult* result);

/// wal_codec.* on the sample reports and checkpoint_codec.* on the
/// service's shard states.
void MeasureCodecLayers(const siot::service::TrustService& service,
                        const LayerSample& sample, SpanLog* log,
                        RunResult* result);

/// The scratch durable pipeline under `directory` (created, then
/// removed): the fsync baseline, WAL bytes per report, ReadWal and
/// ApplyWalOp replay. With `replication`, also a scratch follower over
/// `graph` that polls and rebuilds while the sample is fed, giving
/// replication.*, overlay.*, overlay_serving.* and transitivity.*. With
/// `persistence` (for a workload whose own service has no WAL), the
/// scratch leader also gives persistence.fsyncs_per_report,
/// coalesced_share and checkpoints over its feed, and
/// persistence.checkpoint_ms as a Checkpoint() span.
void MeasureScratchPipeline(const std::string& directory,
                            std::shared_ptr<const siot::graph::Graph> graph,
                            const LayerSample& sample, bool replication,
                            bool persistence, SpanLog* log,
                            RunResult* result);

/// overlay_serving.query_self_us and transitivity.<method>_us against
/// the follower's published snapshot, which must not change meanwhile.
/// Also checks the served answers equal a search of the same snapshot.
void MeasureTransitiveLayers(const siot::service::ReplicaService& follower,
                             const LayerSample& sample, SpanLog* log,
                             RunResult* result);

/// replication.* and overlay.* from "replication.PollAll" and
/// "overlay.BuildOverlaySnapshot" spans, lag samples and overlay info.
void AddReplicationMetrics(const std::vector<Span>& spans,
                           std::vector<double> lag_samples,
                           const siot::service::OverlaySnapshotInfo& info,
                           RunResult* result);

/// persistence.fsyncs_per_report, coalesced_share and checkpoints of a
/// durable service between two Stats() readings.
void AddPersistenceCounts(const siot::service::TrustServiceStats& before,
                          const siot::service::TrustServiceStats& after,
                          std::uint64_t checkpoints, RunResult* result);

/// persistence.checkpoint_ms: a Checkpoint() span of a quiescent durable
/// service. The checkpoint truncates the WALs, so measure it last.
void MeasureCheckpoint(siot::service::TrustService& service, SpanLog* log,
                       RunResult* result);

/// A FaultHook that never fails and counts checkpoints (one
/// kCheckpointBeforeRename per shard checkpoint).
siot::service::FaultHook CountingCheckpointHook(
    std::shared_ptr<std::atomic<std::uint64_t>> counter);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
