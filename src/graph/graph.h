// Copyright 2026 The siot-trust Authors.
// Undirected social graph used as the connectivity substrate of the social
// IoT. Immutable after construction (built via GraphBuilder, or straight
// from a duplicate-free edge list); adjacency is stored CSR-style with
// sorted neighbor lists, so neighbor iteration is a contiguous scan and
// edge queries are binary searches.

#ifndef SIOT_GRAPH_GRAPH_H_
#define SIOT_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"

namespace siot::graph {

/// Dense node identifier in [0, node_count).
using NodeId = std::uint32_t;

/// Undirected simple graph (no self-loops, no parallel edges).
class Graph {
 public:
  /// Empty graph with `node_count` isolated nodes.
  explicit Graph(std::size_t node_count = 0);

  /// Builds the graph from an edge list that is already simple: every id
  /// is < node_count, no edge is a self-loop, and each undirected edge is
  /// listed once, in either orientation ({a, b} and {b, a} are the same
  /// edge). A violation aborts (SIOT_CHECK). One CSR fill — degree count,
  /// prefix sum, scatter, per-row sort — so the cost is O(n + E log d_max)
  /// time and no memory beyond the graph itself and one n-entry cursor;
  /// there is no per-edge heap node and no hash probe. The result is
  /// byte-identical to GraphBuilder::Build() over the same edges. For
  /// generators whose draws can be checked for duplicates locally.
  static Graph FromEdgeList(std::size_t node_count,
                            std::span<const std::pair<NodeId, NodeId>> edges);

  std::size_t node_count() const { return offsets_.size() - 1; }
  std::size_t edge_count() const { return neighbors_.size() / 2; }

  /// Sorted neighbors of `node`.
  std::span<const NodeId> Neighbors(NodeId node) const;

  std::size_t Degree(NodeId node) const;

  /// True if the undirected edge {a, b} exists.
  bool HasEdge(NodeId a, NodeId b) const;

  /// All edges with a < b, in lexicographic order.
  std::vector<std::pair<NodeId, NodeId>> Edges() const;

  /// 2 * edge_count / node_count; 0 for the empty graph.
  double AverageDegree() const;

  friend class GraphBuilder;

 private:
  // The one CSR fill behind FromEdgeList and GraphBuilder::Build.
  // `for_each_edge(visit)` calls visit(a, b) once per undirected edge and
  // is run twice (degree count, then scatter).
  template <typename ForEachEdge>
  static Graph FillCsr(std::size_t node_count, ForEachEdge for_each_edge);

  // offsets_[v]..offsets_[v+1] indexes neighbors_ (CSR).
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> neighbors_;
};

/// Accumulates edges (deduplicating and dropping self-loops) and builds the
/// immutable Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t node_count);

  std::size_t node_count() const { return node_count_; }
  /// Number of distinct undirected edges added so far.
  std::size_t edge_count() const { return edges_.size(); }

  /// Adds undirected edge {a, b}. Self-loops and duplicates are ignored.
  /// Returns true if the edge was newly added.
  bool AddEdge(NodeId a, NodeId b);

  /// Removes the edge if present; returns true if removed.
  bool RemoveEdge(NodeId a, NodeId b);

  bool HasEdge(NodeId a, NodeId b) const;

  /// Current edges, a < b, unordered.
  std::vector<std::pair<NodeId, NodeId>> Edges() const;

  /// Builds the CSR graph; the builder may be reused afterwards.
  Graph Build() const;

 private:
  static std::uint64_t Key(NodeId a, NodeId b);

  std::size_t node_count_;
  std::unordered_set<std::uint64_t> edges_;  // packed (min << 32 | max)
};

}  // namespace siot::graph

#endif  // SIOT_GRAPH_GRAPH_H_
