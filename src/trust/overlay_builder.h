// Copyright 2026 The siot-trust Authors.
// Versioned, shard-spanning overlay snapshots.
//
// The transitivity search (§4.3) needs a whole-graph trust overlay, but
// the serving layer shards trust state by trustor across N engines. This
// file closes that gap at the trust layer, with no dependency on the
// service layer:
//
//   * ShardedStoreOverlay — a TrustOverlay that routes DirectExperience
//     (observer, subject) to the owning shard's TrustStore via an
//     injected router (the service passes ShardIndexForTrustor, the ONE
//     routing function leader and followers share).
//   * SnapshotVersion — the per-shard applied-sequence vector identifying
//     exactly which prefix of each shard's operation log a snapshot
//     reflects. Two snapshots with equal versions were built from equal
//     state.
//   * VersionedOverlaySnapshot — an immutable bundle owning everything a
//     query against the snapshot can touch: the social graph, a COPY of
//     the task catalog (the live catalog mutates under admin writes), the
//     version stamp, and the CSR TrustOverlaySnapshot itself. Safe to
//     share across threads behind a shared_ptr<const ...>.
//   * SerializeOverlaySnapshot — canonical serialization. Construction
//     iterates nodes in id order and neighbors in the graph's sorted CSR
//     order, so snapshots are deterministic; serializing them makes that
//     byte-comparable: a follower-built snapshot at version V must equal,
//     byte for byte, a snapshot built from a single-threaded reference
//     engine replayed to V. The replication tests assert exactly that.

#ifndef SIOT_TRUST_OVERLAY_BUILDER_H_
#define SIOT_TRUST_OVERLAY_BUILDER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "trust/overlay_snapshot.h"
#include "trust/task.h"
#include "trust/transitivity.h"
#include "trust/trust_store.h"
#include "trust/types.h"

namespace siot::trust {

/// Identifies the state a snapshot was built from: entry i is shard i's
/// applied operation sequence number (0 = nothing applied / not durable).
struct SnapshotVersion {
  std::vector<std::uint64_t> applied_seq;

  bool operator==(const SnapshotVersion&) const = default;
};

/// "[3,17,5]" — for logs and experiment tables.
std::string FormatSnapshotVersion(const SnapshotVersion& version);

/// TrustOverlay assembled over N shard TrustStores. DirectExperience
/// (observer, subject) is answered by shard_of(observer)'s store — trust
/// records are keyed by trustor, so the observer's shard owns the row.
/// The stores must stay unchanged (e.g. under their shards' locks) for
/// the overlay's whole use; it is a read-only view, not a copy.
class ShardedStoreOverlay : public TrustOverlay {
 public:
  using ShardRouter = std::function<std::size_t(AgentId)>;

  /// `stores[i]` is shard i's store; `shard_of` maps an agent to its
  /// owning shard index (must return < stores.size()).
  ShardedStoreOverlay(std::vector<const TrustStore*> stores,
                      const Normalizer& normalizer, ShardRouter shard_of);

  std::vector<TaskExperience> DirectExperience(
      AgentId observer, AgentId subject) const override;

 private:
  /// One single-store view per shard; shard i's answers are exactly
  /// StoreTrustOverlay's over stores[i].
  std::vector<StoreTrustOverlay> shards_;
  ShardRouter shard_of_;
};

/// Immutable versioned snapshot bundle; see file comment. Everything a
/// snapshot-backed query dereferences is owned here, so a published
/// shared_ptr<const VersionedOverlaySnapshot> keeps itself alive across
/// arbitrary reader lifetimes while the service swaps in newer builds.
class VersionedOverlaySnapshot {
 public:
  /// Captures `source` over `graph` (which must be non-null). `source`
  /// is only read during construction; `catalog` is copied in so later
  /// admin writes to the live catalog cannot be observed by readers.
  VersionedOverlaySnapshot(std::shared_ptr<const graph::Graph> graph,
                           TaskCatalog catalog, const TrustOverlay& source,
                           SnapshotVersion version);

  const graph::Graph& graph() const { return *graph_; }
  const std::shared_ptr<const graph::Graph>& graph_ptr() const {
    return graph_;
  }
  const TaskCatalog& catalog() const { return catalog_; }
  const SnapshotVersion& version() const { return version_; }
  const TrustOverlaySnapshot& snapshot() const { return snapshot_; }

 private:
  std::shared_ptr<const graph::Graph> graph_;
  TaskCatalog catalog_;
  SnapshotVersion version_;
  TrustOverlaySnapshot snapshot_;  ///< Points into *graph_; declared last.
};

/// Canonical text serialization of a versioned snapshot: version vector,
/// task catalog, and one line per directed edge with its captured
/// experiences. Doubles are emitted as raw IEEE-754 bit patterns (hex),
/// so equal in-memory snapshots — and only equal snapshots — produce
/// identical bytes. This is the byte-comparison oracle of the
/// follower-vs-reference equivalence tests, not a storage format.
std::string SerializeOverlaySnapshot(const VersionedOverlaySnapshot& bundle);

}  // namespace siot::trust

#endif  // SIOT_TRUST_OVERLAY_BUILDER_H_
