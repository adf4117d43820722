// Copyright 2026 The siot-trust Authors.
// TrustService: the leader — the writable serving layer over the trust
// model. The sharded engines, routing, request validation and the whole
// read surface (PreEvaluate, RequestDelegation, their batches, §4.3
// transitive reads) come from ShardedEngineSet; see
// service/sharded_engine_set.h for that contract. This class adds the
// leader's role on top of it:
//   * the data-plane write path: outcome reports take the trustor's
//     shard lock exclusive; batches take each touched shard lock once;
//   * the control plane: cross-trustor configuration (task catalog,
//     reverse-evaluation thresholds, environment indicators) replicated
//     to every shard under a global admin mutex — rare writes;
//   * durability (Open): a per-shard WAL written before every apply,
//     cross-shard group commit, and checkpoints.
// The service starts no threads: checkpoints run inline (Checkpoint(),
// or checkpoint_every_appends on the write path) and overlay rebuilds run
// when the caller asks (RebuildOverlaySnapshot).
// Because shards share no data-plane state, a multi-threaded run over any
// partition of the trustors is equivalent to a single-threaded run of the
// same per-trustor operation sequences — the service and bench tests
// assert exactly that.

#ifndef SIOT_SERVICE_TRUST_SERVICE_H_
#define SIOT_SERVICE_TRUST_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "service/overlay_serving.h"
#include "service/persistence.h"
#include "service/sharded_engine_set.h"
#include "trust/trust_engine.h"
#include "trust/types.h"

namespace siot::service {

/// Service configuration.
struct TrustServiceConfig {
  /// Number of shards (lock stripes / engine partitions); clamped to >= 1.
  /// More shards mean less write contention and more replicated admin
  /// state; 4× the serving thread count is a good default.
  std::size_t shard_count = 16;
  /// Engine configuration applied to every shard.
  trust::TrustEngineConfig engine;
};

/// One post-evaluation report (TrustEngine::ReportOutcome arguments).
struct OutcomeReport {
  trust::AgentId trustor = trust::kNoAgent;
  trust::AgentId trustee = trust::kNoAgent;
  trust::TaskId task = trust::kNoTask;
  trust::DelegationOutcome outcome;
  /// Relay chain between trustor and trustee (environment Eq. 29).
  std::vector<trust::AgentId> intermediates;
  bool trustor_was_abusive = false;
};

/// One shard's durable log position (see TrustService::WalPositions).
struct ShardWalPosition {
  std::size_t shard = 0;
  /// Sequence number of the shard's last durably appended op (0 = none;
  /// monotone over the directory's whole life — checkpoints truncate the
  /// WAL file but never rewind sequence numbers).
  std::uint64_t last_seq = 0;
  /// Current WAL file size in bytes (drops to 0 at a checkpoint).
  std::uint64_t wal_bytes = 0;
};

/// Sharded, thread-safe trust serving layer; see file comment. All public
/// methods are safe to call concurrently from any number of threads.
class TrustService {
 public:
  explicit TrustService(TrustServiceConfig config = {});

  // ------------------------------------------------------- durability --

  /// Opens a DURABLE service over `options.directory`: every mutation is
  /// written to a per-shard CRC-framed WAL before it is applied,
  /// checkpoints bound recovery time, and this call replays
  /// checkpoint + WAL tail so the returned service resumes byte-identical
  /// to the state at the last acknowledged write of the previous
  /// incarnation. The directory is created on first use and carries a
  /// manifest binding it to this shard count + engine config; reopening
  /// under a different configuration is refused (records would land on
  /// the wrong shards / replay would diverge). Corrupt files surface as
  /// Status Corruption, never a crash. See service/persistence.h.
  static StatusOr<std::unique_ptr<TrustService>> Open(
      const TrustServiceConfig& config, const PersistenceOptions& options);

  /// Open with an already-held directory fence: the failover path.
  /// ReplicaService::Promote acquires the LOCK the moment the old leader
  /// is observed dead and hands it here, so there is no release/
  /// re-acquire window in which a third node could seize the directory.
  /// An unheld `fence` behaves exactly like the two-argument Open.
  static StatusOr<std::unique_ptr<TrustService>> Open(
      const TrustServiceConfig& config, const PersistenceOptions& options,
      DirectoryLock fence);

  /// Per-shard durable WAL positions, in shard order — and a frame-
  /// visibility barrier: each position is read under its shard's lock,
  /// so every append that completed before this call is fully written
  /// to its WAL file (a follower reading the file sees whole frames up
  /// to `last_seq`, never a prefix of them). A follower whose applied
  /// sequence reaches `last_seq` on every shard has replicated every
  /// write acknowledged before the barrier. Empty when the service is
  /// not persistent.
  std::vector<ShardWalPosition> WalPositions() const;

  /// Checkpoints every shard now (serialize state, atomically replace the
  /// checkpoint file, truncate the WAL). Concurrency-safe: each shard is
  /// checkpointed under its exclusive lock, so data-plane traffic on
  /// other shards proceeds. FailedPrecondition when the service was not
  /// opened with persistence.
  Status Checkpoint();

  /// True when this service was created by Open (durable mode).
  bool persistent() const { return ShardAt(0).persist != nullptr; }

  /// First error an automatic (checkpoint_every_appends) checkpoint hit,
  /// if any (writes are still durable in the WAL when a checkpoint fails;
  /// this surfaces the degradation for monitoring).
  Status background_status() const;

  /// True once a WAL append failed. A failed append can leave an admin
  /// write partially replicated across shards, so the service fails all
  /// further mutations (FailedPrecondition) instead of serving from
  /// divergent replicas — restart to recover: WAL replay plus the
  /// shard-0 reconciliation squares the ledger. Reads keep working.
  bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }

  // ----------------------------------------------------------- control --
  // Rare, globally serialized; replicated to every shard (and, in durable
  // mode, logged to every shard's WAL — each shard's checkpoint + WAL is
  // self-contained). A crash can interrupt replication midway; recovery
  // completes the partial admin write from shard 0's copy, which
  // replication always reaches first.

  /// Registers a task type in every shard's catalog. Returns the task id,
  /// identical across shards (registration order is the id order).
  StatusOr<trust::TaskId> RegisterTask(
      const std::string& name,
      const std::vector<trust::CharacteristicId>& characteristics);

  /// Sets `trustee`'s reverse-evaluation threshold θ_y(τ)
  /// (task = kNoTask ⇒ all tasks).
  Status SetReverseThreshold(trust::AgentId trustee, trust::TaskId task,
                             double theta);

  /// Sets `agent`'s instantaneous environment indicator (in (0, 1]);
  /// InvalidArgument outside that range.
  Status SetEnvironmentIndicator(trust::AgentId agent, double indicator);

  // -------------------------------------------------------- data plane --
  // Reads forward to the ShardedEngineSet contract (validation, batch
  // atomicity, counters): see service/sharded_engine_set.h. Writes apply
  // the same boundary — the task id against the replicated catalog, the
  // report's fields as data — and a batch is validated and rejected
  // atomically before any shard is touched.

  StatusOr<double> PreEvaluate(trust::AgentId trustor,
                               trust::AgentId trustee,
                               trust::TaskId task) const {
    return engines_.PreEvaluate(trustor, trustee, task);
  }
  StatusOr<trust::DelegationRequestResult> RequestDelegation(
      const DelegationServiceRequest& request) const {
    return engines_.RequestDelegation(request);
  }
  StatusOr<std::vector<double>> BatchPreEvaluate(
      std::span<const PreEvaluateRequest> requests) const {
    return engines_.BatchPreEvaluate(requests);
  }
  StatusOr<std::vector<trust::DelegationRequestResult>>
  BatchRequestDelegation(
      std::span<const DelegationServiceRequest> requests) const {
    return engines_.BatchRequestDelegation(requests);
  }

  /// Post-evaluation (exclusive lock on the trustor's shard).
  Status ReportOutcome(const OutcomeReport& report);

  /// Batched reports: one lock acquisition and one WAL write per touched
  /// shard, and one group-commit flush for the whole batch.
  Status BatchReportOutcome(std::span<const OutcomeReport> reports);

  // ------------------------------------------- transitive read path --
  // The PRODUCTION home of §4.3 transitive serving is a follower
  // (ReplicaService): it already holds all shards' replicated state and
  // tolerates staleness, so the expensive assembly never holds leader
  // shard locks. This single-node variant serves small deployments and
  // the equivalence tests; its rebuild briefly holds every shard's
  // SHARED lock (reads keep serving, writers stall for the assembly).

  Status EnableTransitiveServing(std::shared_ptr<const graph::Graph> graph,
                                 trust::TransitivityParams params) {
    return engines_.EnableTransitiveServing(std::move(graph),
                                            std::move(params));
  }

  /// ShardedEngineSet::RebuildOverlaySnapshot, stamped with the
  /// per-shard durable last_seq vector (all zeros without persistence).
  /// Concurrent calls are serialized, so the served version never goes
  /// backwards.
  Status RebuildOverlaySnapshot();

  StatusOr<TransitiveTrustResult> TransitiveTrust(
      const TransitiveTrustRequest& request) const {
    return engines_.TransitiveTrust(request);
  }
  StatusOr<std::vector<TransitiveTrustResult>> BatchTransitiveTrust(
      std::span<const TransitiveTrustRequest> requests) const {
    return engines_.BatchTransitiveTrust(requests);
  }
  OverlaySnapshotInfo OverlayInfo() const { return engines_.OverlayInfo(); }
  std::shared_ptr<const trust::VersionedOverlaySnapshot>
  CurrentOverlaySnapshot() const {
    return engines_.CurrentOverlaySnapshot();
  }

  // ------------------------------------------------------- observation --

  std::size_t shard_count() const { return engines_.shard_count(); }
  std::size_t ShardOf(trust::AgentId trustor) const {
    return engines_.ShardOf(trustor);
  }
  TrustServiceStats Stats() const;

  /// Caller-synchronized test hook; see ShardedEngineSet::shard_engine.
  const trust::TrustEngine& shard_engine(std::size_t shard) const {
    return engines_.shard_engine(shard);
  }

 private:
  /// The leader's role state, guarded by the shard's own mutex.
  struct LeaderShard : ShardedEngineSet::Shard {
    using Shard::Shard;
    /// Durable mode only. The pointer itself is set once before
    /// concurrency starts (Open) and never reseated; the pointee is
    /// mutated by appends/checkpoints under the exclusive lock and read
    /// (positions, stats) under at least the shared lock.
    std::unique_ptr<ShardPersistence> persist SIOT_PT_GUARDED_BY(mutex);
  };

  LeaderShard& ShardAt(std::size_t s) const {
    return engines_.shard<LeaderShard>(s);
  }

  /// FailedPrecondition once a WAL append has failed (see degraded()).
  Status CheckNotDegraded() const;

  /// Wraps a WAL append: a failure marks the service degraded. With
  /// `defer_sync`, the append's flush is left to a later
  /// GroupSyncShards call covering the whole batch (no-op difference
  /// when group commit is off — see ShardPersistence::LogDeferSync).
  Status LogOrDegrade(ShardPersistence* persist,
                      const std::vector<std::string>& payloads,
                      bool defer_sync = false);

  /// Flushes the deferred appends of `shard_ids` in ONE group-commit
  /// round (the cross-shard half of group commit: a batch or admin write
  /// touching N shards pays one flush, not N). On failure every touched
  /// shard's writer is poisoned — its frames' durability is unknown —
  /// and the service degrades. No-op when group commit is off.
  Status GroupSyncShards(const std::vector<std::size_t>& shard_ids);

  /// Completes admin writes a crash left partially replicated: shard 0
  /// (which replication reaches first) is authoritative; lagging shards
  /// get the missing catalog entries / thresholds / indicators logged to
  /// their WALs and applied. No-op after a clean shutdown.
  Status ReconcileAdminState();

  /// Checkpoints one shard; caller holds the shard's exclusive lock.
  Status CheckpointShardLocked(LeaderShard& shard)
      SIOT_REQUIRES(shard.mutex);

  /// Inline auto-checkpoint after data-plane appends (durable mode with
  /// checkpoint_every_appends set); caller holds the exclusive lock. The
  /// triggering write is already durable + applied, so a checkpoint
  /// failure only logs + records background degradation.
  void MaybeAutoCheckpointLocked(LeaderShard& shard)
      SIOT_REQUIRES(shard.mutex);

  /// The one admin write path: logs `payload` (an Encode*OpBinary admin
  /// op) to every shard's WAL in durable mode, flushed in one group-commit
  /// round, and applies it to every shard, shard 0 first, through
  /// ApplyWalOp — the apply that replay, ReconcileAdminState and the
  /// follower use. The caller has validated the op, so the apply cannot
  /// fail. `after_apply`, when set, runs on each shard's engine right
  /// after the apply, under that shard's lock.
  Status ReplicateAdminOp(
      const std::string& payload,
      const std::function<void(const trust::TrustEngine&)>& after_apply =
          {}) SIOT_REQUIRES(admin_mutex_);

  /// The shard tier: engines, routing, validation and the read surface.
  ShardedEngineSet engines_;
  /// Lock rank 1 of 3: admin_mutex_ → shard.mutex (ascending index) →
  /// background_mutex_. The shard locks are per-instance and dynamic, so
  /// only the admin_mutex_ → background_mutex_ edge is expressible to
  /// the analysis; the shard tier is held by convention (and audited by
  /// MultiReaderLock's comment).
  Mutex admin_mutex_ SIOT_ACQUIRED_BEFORE(background_mutex_);
  /// Durable mode configuration; ShardPersistence instances point at it.
  PersistenceOptions persistence_;
  /// Cross-shard fsync coalescer (durable mode with a nonzero
  /// group_commit_window — possibly via SIOT_GROUP_COMMIT_WINDOW_US);
  /// null means legacy per-shard inline fsync.
  std::unique_ptr<GroupCommitter> group_committer_;
  /// Held for the service's lifetime in durable mode (one live service
  /// per directory).
  DirectoryLock directory_lock_;
  /// Lock rank 3 of 3 (leaf): taken under a held shard lock by
  /// MaybeAutoCheckpointLocked; never the other way around.
  mutable Mutex background_mutex_;
  Status background_status_ SIOT_GUARDED_BY(background_mutex_);
  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> outcome_reports_{0};
};

/// The manifest contents binding a persistence directory to a shard
/// count + engine configuration. Exposed so a replica can verify it was
/// opened under the exact configuration the leader's directory was
/// created with (WAL replay under a different config silently diverges).
std::string BuildServiceManifest(std::size_t shard_count,
                                 const TrustServiceConfig& config);

}  // namespace siot::service

#endif  // SIOT_SERVICE_TRUST_SERVICE_H_
