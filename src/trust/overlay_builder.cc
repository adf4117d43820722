// Copyright 2026 The siot-trust Authors.

#include "trust/overlay_builder.h"

#include <cstring>

#include "common/macros.h"
#include "common/string_util.h"
#include "trust/trust_store_io.h"

namespace siot::trust {

std::string FormatSnapshotVersion(const SnapshotVersion& version) {
  std::string out = "[";
  for (std::size_t i = 0; i < version.applied_seq.size(); ++i) {
    if (i != 0) out += ',';
    out += StrFormat("%llu",
                     static_cast<unsigned long long>(version.applied_seq[i]));
  }
  out += ']';
  return out;
}

ShardedStoreOverlay::ShardedStoreOverlay(std::vector<const TrustStore*> stores,
                                         const Normalizer& normalizer,
                                         ShardRouter shard_of)
    : shard_of_(std::move(shard_of)) {
  SIOT_CHECK(!stores.empty());
  SIOT_CHECK(static_cast<bool>(shard_of_));
  shards_.reserve(stores.size());
  for (const TrustStore* store : stores) {
    SIOT_CHECK(store != nullptr);
    shards_.emplace_back(*store, normalizer);
  }
}

std::vector<TaskExperience> ShardedStoreOverlay::DirectExperience(
    AgentId observer, AgentId subject) const {
  const std::size_t shard = shard_of_(observer);
  SIOT_CHECK_MSG(shard < shards_.size(),
                 "router sent agent %u to shard %zu of %zu",
                 static_cast<unsigned>(observer), shard, shards_.size());
  return shards_[shard].DirectExperience(observer, subject);
}

namespace {

std::shared_ptr<const graph::Graph> RequireGraph(
    std::shared_ptr<const graph::Graph> graph) {
  SIOT_CHECK(graph != nullptr);
  return graph;
}

}  // namespace

VersionedOverlaySnapshot::VersionedOverlaySnapshot(
    std::shared_ptr<const graph::Graph> graph, TaskCatalog catalog,
    const TrustOverlay& source, SnapshotVersion version)
    : graph_(RequireGraph(std::move(graph))),
      catalog_(std::move(catalog)),
      version_(std::move(version)),
      snapshot_(*graph_, source) {}

namespace {

/// Raw IEEE-754 bit pattern, zero-padded hex — the only double encoding
/// under which "equal bytes" means "equal values" with no rounding.
std::string DoubleBits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return StrFormat("%016llx", static_cast<unsigned long long>(bits));
}

}  // namespace

std::string SerializeOverlaySnapshot(const VersionedOverlaySnapshot& bundle) {
  const graph::Graph& graph = bundle.graph();
  const TrustOverlaySnapshot& snapshot = bundle.snapshot();
  std::string out = "siot-overlay-snapshot 1\n";
  out += "version";
  for (const std::uint64_t seq : bundle.version().applied_seq) {
    out += StrFormat(" %llu", static_cast<unsigned long long>(seq));
  }
  out += '\n';
  out += StrFormat("graph %zu %zu\n", graph.node_count(),
                   snapshot.directed_edge_count());
  const TaskCatalog& catalog = bundle.catalog();
  for (TaskId id = 0; id < catalog.size(); ++id) {
    const Task& task = catalog.Get(id);
    out += StrFormat("task %u %s %zu", static_cast<unsigned>(id),
                     EscapeNameToken(task.name()).c_str(),
                     task.parts().size());
    for (const WeightedCharacteristic& part : task.parts()) {
      out += StrFormat(" %u:%s", static_cast<unsigned>(part.id),
                       DoubleBits(part.weight).c_str());
    }
    out += '\n';
  }
  // One line per directed edge, in the snapshot's dense edge order (node
  // id order × sorted-neighbor order) — the canonical CSR traversal.
  for (graph::NodeId u = 0; u < graph.node_count(); ++u) {
    const auto neighbors = graph.Neighbors(u);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const auto experiences =
          snapshot.Experiences(snapshot.FirstEdge(u) + k);
      out += StrFormat("e %u %u %zu", static_cast<unsigned>(u),
                       static_cast<unsigned>(neighbors[k]),
                       experiences.size());
      for (const TaskExperience& exp : experiences) {
        out += StrFormat(" %u:%s", static_cast<unsigned>(exp.task),
                         DoubleBits(exp.trustworthiness).c_str());
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace siot::trust
