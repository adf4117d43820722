// Copyright 2026 The siot-trust Authors.
// ShardedEngineSet: the one sharded read core under both serving roles.
// The leader (TrustService) and the WAL-tailing follower (ReplicaService)
// each compose one and add only their own role on top.
//
// Sharding. The engine-level components (TrustEngine and everything
// below it) are deliberately single-threaded; the set makes them serve
// concurrent traffic by exploiting a locality fact of the paper's model:
// every piece of state an operation for trustor X touches is keyed by X —
//   * X's outcome estimates live under (X, trustee, task) in the store,
//   * the reverse-evaluation usage history a trustee keeps about X is
//     keyed (trustee, X) and is only ever consulted for X's own requests,
//   * delegation requests read, and outcome reports write, only X's rows.
// So state is sharded BY TRUSTOR (ShardIndexForTrustor): each shard owns
// a full TrustEngine behind one striped siot::SharedMutex. Reads take it
// shared, so the read-mostly steady state serves concurrently; the
// roles' writers (leader reports and admin writes, follower WAL apply
// and rewind) take it exclusive. Cross-trustor configuration (task
// catalog, reverse-evaluation thresholds, environment indicators) is
// replicated to every shard, shard 0 first.
//
// Serving boundary. Unlike the engine underneath (where an unknown task
// id is a programming error that trips SIOT_CHECK), malformed requests
// are data: every read checks agents against the kNoAgent sentinel and
// the task id against a registered-task bound held in an atomic, so the
// validation path takes no shard lock. A task is valid on a node once
// EVERY shard of that node has it (PublishTaskBound). Batch calls
// validate the WHOLE batch up front and reject it atomically, and the
// read counters move only for accepted requests — so leader and follower
// return the same status, message and Stats() for the same request.
//
// Read API: PreEvaluate (Eq. 18), RequestDelegation (ranking under the
// configured strategy, the Eq. 24 self comparison, reverse evaluations),
// their batched variants (one lock acquisition per touched shard,
// results in input order), and the §4.3 transitive path served from a
// published overlay snapshot (service/overlay_serving.h). Because shards
// share no data-plane state, a multi-threaded run over any partition of
// the trustors is equivalent to a single-threaded run of the same
// per-trustor operation sequences.
//
// Role state. A role derives its shard type from ShardedEngineSet::Shard
// and guards its own fields (the leader's WAL writer, the follower's
// tail offsets) with the same shard mutex, so one lock covers the engine
// and the role's view of it.

#ifndef SIOT_SERVICE_SHARDED_ENGINE_SET_H_
#define SIOT_SERVICE_SHARDED_ENGINE_SET_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "service/overlay_serving.h"
#include "trust/trust_engine.h"
#include "trust/types.h"

namespace siot::service {

/// One pre-evaluation query TW_X←Y(τ).
struct PreEvaluateRequest {
  trust::AgentId trustor = trust::kNoAgent;
  trust::AgentId trustee = trust::kNoAgent;
  trust::TaskId task = trust::kNoTask;
};

/// One delegation request (TrustEngine::RequestDelegation arguments).
struct DelegationServiceRequest {
  trust::AgentId trustor = trust::kNoAgent;
  trust::TaskId task = trust::kNoTask;
  std::vector<trust::AgentId> candidates;
  /// Enables the Eq. 24 self-execution comparison when present.
  std::optional<trust::OutcomeEstimates> self_estimates;
};

/// Point-in-time service counters and store sizes.
struct TrustServiceStats {
  std::size_t shard_count = 0;
  std::size_t record_count = 0;       ///< Σ shard store records.
  std::size_t pair_count = 0;         ///< Σ shard store directed pairs.
  std::uint64_t pre_evaluations = 0;  ///< Accepted queries since start.
  std::uint64_t delegation_requests = 0;
  std::uint64_t outcome_reports = 0;
  /// Durable-mode flush accounting (all zero without persistence or with
  /// sync_every_append off). `wal_sync_requests` counts logical "make
  /// this durable" requests; `wal_fsyncs` counts device flushes actually
  /// issued. Without group commit they advance in lockstep; with it,
  /// `wal_syncs_coalesced` = requests − flushes is the number of syncs
  /// the committer absorbed into a shared flush.
  std::uint64_t wal_sync_requests = 0;
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t wal_syncs_coalesced = 0;
};

/// Shard index serving `trustor` in a `shard_count`-shard deployment.
/// The ONE routing function: a follower replays shard i's WAL into its
/// own shard i, so leader and replicas must agree on routing forever —
/// never fork this hash. (SplitMix64 finalizer: adjacent agent ids spread
/// across shards so a dense trustor range doesn't pile onto one stripe.)
std::size_t ShardIndexForTrustor(trust::AgentId trustor,
                                 std::size_t shard_count);

/// InvalidArgument when `agent` is the kNoAgent sentinel; `role` names
/// the request field in the message.
Status ValidateAgent(trust::AgentId agent, const char* role);

/// Sharded engines plus the read surface over them; see file comment.
/// All public methods are safe to call concurrently.
class ShardedEngineSet {
 public:
  /// One engine partition. Roles derive from it to add state guarded by
  /// `mutex`; the set keeps each shard as the type it was made with.
  struct Shard {
    explicit Shard(const trust::TrustEngineConfig& config)
        : engine(std::make_unique<trust::TrustEngine>(config)) {}
    virtual ~Shard() = default;
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    mutable SharedMutex mutex;
    /// A pointer because the follower's checkpoint rewind reseats it, so
    /// the pointer itself is guarded too.
    std::unique_ptr<trust::TrustEngine> engine SIOT_GUARDED_BY(mutex);
  };

  /// A shard's sequence number for the consistent-cut version stamp.
  /// Called with EVERY shard's lock held shared (RebuildOverlaySnapshot),
  /// a dynamic set the analysis cannot track: the function re-asserts
  /// the one capability it needs with shard.mutex.AssertReaderHeld().
  using SeqOfShard = std::uint64_t (*)(const Shard& shard);

  /// `count` (clamped to >= 1) shards of the role's type ShardT, each
  /// over a fresh engine built from `config`.
  template <typename ShardT>
  ShardedEngineSet(std::type_identity<ShardT>, std::size_t count,
                   const trust::TrustEngineConfig& config) {
    static_assert(std::is_base_of_v<Shard, ShardT>);
    count = std::max<std::size_t>(count, 1);
    shards_.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
      shards_.push_back(std::make_unique<ShardT>(config));
    }
  }

  std::size_t shard_count() const { return shards_.size(); }

  /// Shard index serving `trustor` (stable for the set's lifetime).
  std::size_t ShardOf(trust::AgentId trustor) const {
    return ShardIndexForTrustor(trustor, shards_.size());
  }

  /// Shard `s` as the role type ShardT the set was constructed with.
  template <typename ShardT>
  ShardT& shard(std::size_t s) const {
    return static_cast<ShardT&>(*shards_[s]);
  }

  /// Groups [0, count) by ShardOf(trustor_of(index)) and runs
  /// `body(shard, indices)` once per non-empty shard bucket, in shard
  /// order — so a caller locking inside `body` holds one shard lock at a
  /// time.
  template <typename TrustorOf, typename Body>
  void GroupByShard(std::size_t count, const TrustorOf& trustor_of,
                    const Body& body) const {
    std::vector<std::vector<std::size_t>> buckets(shards_.size());
    for (std::size_t i = 0; i < count; ++i) {
      buckets[ShardOf(trustor_of(i))].push_back(i);
    }
    for (std::size_t s = 0; s < buckets.size(); ++s) {
      if (!buckets[s].empty()) body(s, buckets[s]);
    }
  }

  // ------------------------------------------------ serving boundary --

  /// InvalidArgument unless `task` is below the published task bound.
  Status ValidateTask(trust::TaskId task) const;

  /// Raises the task bound to the smallest catalog size over all shards
  /// (each read under its shared lock). The bound never goes down, so a
  /// publisher that sampled older catalogs cannot revoke a task. The
  /// leader calls this at open and after each fully replicated
  /// registration; the follower after every poll.
  void PublishTaskBound();

  // --------------------------------------------------------- read API --

  /// Pre-evaluation TW_X←Y(τ) (shared lock on the trustor's shard).
  StatusOr<double> PreEvaluate(trust::AgentId trustor,
                               trust::AgentId trustee,
                               trust::TaskId task) const;

  /// Delegation request (shared lock on the trustor's shard): ranking
  /// under the configured strategy, Eq. 24 self comparison, reverse
  /// evaluations. Read-only: the outcome is reported to the leader.
  StatusOr<trust::DelegationRequestResult> RequestDelegation(
      const DelegationServiceRequest& request) const;

  /// Batched variants: the whole batch is validated up front and
  /// rejected atomically; one lock acquisition per touched shard;
  /// results in input order.
  StatusOr<std::vector<double>> BatchPreEvaluate(
      std::span<const PreEvaluateRequest> requests) const;
  StatusOr<std::vector<trust::DelegationRequestResult>>
  BatchRequestDelegation(
      std::span<const DelegationServiceRequest> requests) const;

  /// Shard count, read counters and store sizes summed over the shards;
  /// the role fills in its own counters.
  TrustServiceStats Stats() const;

  // ------------------------------------------- transitive read path --

  /// Arms transitive serving over `graph` (agent i = node i). Queries
  /// stay FailedPrecondition until the first RebuildOverlaySnapshot.
  Status EnableTransitiveServing(std::shared_ptr<const graph::Graph> graph,
                                 trust::TransitivityParams params) {
    return overlay_.Configure(std::move(graph), std::move(params));
  }

  /// Assembles an overlay snapshot from all shard stores under ONE
  /// simultaneous all-shard shared-lock hold (a consistent cut, stamped
  /// with `seq_of` per shard), then prepares and publishes it with the
  /// shard locks released. Readers of the previous snapshot never block.
  /// Rebuilds are serialized from cut to publish, so a slower rebuild of
  /// an older cut can never replace a newer snapshot.
  Status RebuildOverlaySnapshot(SeqOfShard seq_of);

  /// Transitive trust query against the published snapshot; the answer
  /// carries the snapshot version and age.
  StatusOr<TransitiveTrustResult> TransitiveTrust(
      const TransitiveTrustRequest& request) const {
    return overlay_.Query(request);
  }

  /// Batched variant: whole-batch validation, atomic rejection, every
  /// answer from one snapshot.
  StatusOr<std::vector<TransitiveTrustResult>> BatchTransitiveTrust(
      std::span<const TransitiveTrustRequest> requests) const {
    return overlay_.BatchQuery(requests);
  }

  /// Version/age/size of the served snapshot.
  OverlaySnapshotInfo OverlayInfo() const { return overlay_.Info(); }

  /// The served snapshot bundle (null before the first rebuild).
  std::shared_ptr<const trust::VersionedOverlaySnapshot>
  CurrentOverlaySnapshot() const {
    return overlay_.CurrentSnapshot();
  }

  /// Direct engine access for tests and offline inspection. NOT
  /// synchronized — the caller must guarantee no concurrent use.
  /// Justified escape: this is the documented caller-synchronized test
  /// hook; taking the shard lock here would let production code lean on
  /// an accessor whose contract is "no concurrent use".
  const trust::TrustEngine& shard_engine(std::size_t s) const
      SIOT_NO_THREAD_SAFETY_ANALYSIS {
    return *shards_[s]->engine;
  }

 private:
  Status Validate(const PreEvaluateRequest& request) const;
  Status Validate(const DelegationServiceRequest& request) const;

  /// The one validate → count → route → shared-lock → engine-call path
  /// behind both single-request reads.
  template <typename Result, typename Request>
  StatusOr<Result> Serve(const Request& request,
                         std::atomic<std::uint64_t>& counter) const;

  /// The batched form of Serve.
  template <typename Result, typename Request>
  StatusOr<std::vector<Result>> ServeBatch(
      std::span<const Request> requests,
      std::atomic<std::uint64_t>& counter) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Serializes RebuildOverlaySnapshot from the cut through Publish.
  /// Lock rank: build_mutex_ → shard.mutex (ascending index) →
  /// OverlaySnapshotIndex's mutex. Queries never take it.
  Mutex build_mutex_;
  /// Snapshot-backed transitive read path.
  OverlaySnapshotIndex overlay_;
  /// Tasks [0, bound) are registered on every shard (PublishTaskBound).
  std::atomic<trust::TaskId> task_bound_{0};
  mutable std::atomic<std::uint64_t> pre_evaluations_{0};
  mutable std::atomic<std::uint64_t> delegation_requests_{0};
};

}  // namespace siot::service

#endif  // SIOT_SERVICE_SHARDED_ENGINE_SET_H_
