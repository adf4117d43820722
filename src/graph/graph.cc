// Copyright 2026 The siot-trust Authors.

#include "graph/graph.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"

namespace siot::graph {

Graph::Graph(std::size_t node_count) : offsets_(node_count + 1, 0) {}

template <typename ForEachEdge>
Graph Graph::FillCsr(std::size_t node_count, ForEachEdge for_each_edge) {
  Graph g(node_count);
  for_each_edge([&g](NodeId a, NodeId b) {
    ++g.offsets_[a + 1];
    ++g.offsets_[b + 1];
  });
  std::partial_sum(g.offsets_.begin(), g.offsets_.end(), g.offsets_.begin());
  g.neighbors_.resize(g.offsets_.back());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for_each_edge([&g, &cursor](NodeId a, NodeId b) {
    g.neighbors_[cursor[a]++] = b;
    g.neighbors_[cursor[b]++] = a;
  });
  for (std::size_t v = 0; v < node_count; ++v) {
    std::sort(g.neighbors_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v]),
              g.neighbors_.begin() +
                  static_cast<std::ptrdiff_t>(g.offsets_[v + 1]));
  }
  return g;
}

Graph Graph::FromEdgeList(std::size_t node_count,
                          std::span<const std::pair<NodeId, NodeId>> edges) {
  for (const auto& [a, b] : edges) {
    SIOT_CHECK_MSG(a < node_count && b < node_count,
                   "edge (%u,%u) out of range for %zu nodes", a, b,
                   node_count);
    SIOT_CHECK_MSG(a != b, "self-loop on node %u", a);
  }
  Graph g = FillCsr(node_count, [edges](auto&& visit) {
    for (const auto& [a, b] : edges) visit(a, b);
  });
  for (NodeId v = 0; v < node_count; ++v) {
    const auto nbrs = g.Neighbors(v);
    const auto dup = std::adjacent_find(nbrs.begin(), nbrs.end());
    SIOT_CHECK_MSG(dup == nbrs.end(), "edge (%u,%u) listed twice", v,
                   *dup);
  }
  return g;
}

std::span<const NodeId> Graph::Neighbors(NodeId node) const {
  SIOT_CHECK(node < node_count());
  return {neighbors_.data() + offsets_[node],
          neighbors_.data() + offsets_[node + 1]};
}

std::size_t Graph::Degree(NodeId node) const {
  SIOT_CHECK(node < node_count());
  return offsets_[node + 1] - offsets_[node];
}

bool Graph::HasEdge(NodeId a, NodeId b) const {
  if (a >= node_count() || b >= node_count() || a == b) return false;
  // Search from the lower-degree endpoint.
  if (Degree(a) > Degree(b)) std::swap(a, b);
  const auto nbrs = Neighbors(a);
  return std::binary_search(nbrs.begin(), nbrs.end(), b);
}

std::vector<std::pair<NodeId, NodeId>> Graph::Edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(edge_count());
  for (NodeId v = 0; v < node_count(); ++v) {
    for (NodeId u : Neighbors(v)) {
      if (v < u) out.emplace_back(v, u);
    }
  }
  return out;
}

double Graph::AverageDegree() const {
  if (node_count() == 0) return 0.0;
  return 2.0 * static_cast<double>(edge_count()) /
         static_cast<double>(node_count());
}

GraphBuilder::GraphBuilder(std::size_t node_count)
    : node_count_(node_count) {}

std::uint64_t GraphBuilder::Key(NodeId a, NodeId b) {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

bool GraphBuilder::AddEdge(NodeId a, NodeId b) {
  SIOT_CHECK_MSG(a < node_count_ && b < node_count_,
                 "edge (%u,%u) out of range for %zu nodes", a, b,
                 node_count_);
  if (a == b) return false;
  return edges_.insert(Key(a, b)).second;
}

bool GraphBuilder::RemoveEdge(NodeId a, NodeId b) {
  return edges_.erase(Key(a, b)) > 0;
}

bool GraphBuilder::HasEdge(NodeId a, NodeId b) const {
  if (a == b) return false;
  return edges_.contains(Key(a, b));
}

std::vector<std::pair<NodeId, NodeId>> GraphBuilder::Edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(edges_.size());
  for (std::uint64_t key : edges_) {
    out.emplace_back(static_cast<NodeId>(key >> 32),
                     static_cast<NodeId>(key & 0xFFFFFFFFull));
  }
  return out;
}

Graph GraphBuilder::Build() const {
  return Graph::FillCsr(node_count_, [this](auto&& visit) {
    for (std::uint64_t key : edges_) {
      visit(static_cast<NodeId>(key >> 32),
            static_cast<NodeId>(key & 0xFFFFFFFFull));
    }
  });
}

}  // namespace siot::graph
