// Copyright 2026 The siot-trust Authors.

#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/macros.h"
#include "graph/metrics.h"

namespace siot::graph {

Graph ErdosRenyiGnp(std::size_t n, double p, Rng& rng) {
  SIOT_CHECK(p >= 0.0 && p <= 1.0);
  if (p <= 0.0 || n < 2) return Graph(n);
  std::vector<std::pair<NodeId, NodeId>> edges;
  if (p >= 1.0) {
    edges.reserve(n * (n - 1) / 2);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) edges.emplace_back(a, b);
    }
    return Graph::FromEdgeList(n, edges);
  }
  // Geometric skipping (Batagelj–Brandes): O(n + m) instead of O(n^2). It
  // visits the pairs (v, w), w < v, in increasing order, so each is drawn
  // at most once.
  const double log_q = std::log(1.0 - p);
  std::int64_t v = 1;
  std::int64_t w = -1;
  const auto nn = static_cast<std::int64_t>(n);
  while (v < nn) {
    double r = rng.NextDouble();
    while (r <= 0.0) r = rng.NextDouble();
    w += 1 + static_cast<std::int64_t>(std::floor(std::log(r) / log_q));
    while (w >= v && v < nn) {
      w -= v;
      ++v;
    }
    if (v < nn) {
      edges.emplace_back(static_cast<NodeId>(v), static_cast<NodeId>(w));
    }
  }
  return Graph::FromEdgeList(n, edges);
}

Graph ErdosRenyiGnm(std::size_t n, std::size_t m, Rng& rng) {
  const std::size_t max_edges = n < 2 ? 0 : n * (n - 1) / 2;
  SIOT_CHECK_MSG(m <= max_edges, "G(n,m): m=%zu exceeds max %zu", m,
                 max_edges);
  GraphBuilder builder(n);
  while (builder.edge_count() < m) {
    const auto a = static_cast<NodeId>(rng.NextBounded(n));
    const auto b = static_cast<NodeId>(rng.NextBounded(n));
    builder.AddEdge(a, b);
  }
  return builder.Build();
}

Graph WattsStrogatz(std::size_t n, std::size_t k, double beta, Rng& rng) {
  SIOT_CHECK_MSG(k % 2 == 0, "Watts–Strogatz requires even k, got %zu", k);
  SIOT_CHECK(k < n);
  SIOT_CHECK(beta >= 0.0 && beta <= 1.0);
  GraphBuilder builder(n);
  // Ring lattice.
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t j = 1; j <= k / 2; ++j) {
      builder.AddEdge(v, static_cast<NodeId>((v + j) % n));
    }
  }
  // Rewire each lattice edge (v, v+j) with probability beta.
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t j = 1; j <= k / 2; ++j) {
      if (!rng.Bernoulli(beta)) continue;
      const auto old_target = static_cast<NodeId>((v + j) % n);
      if (!builder.HasEdge(v, old_target)) continue;  // already rewired away
      // Choose a new endpoint that is not v and not already a neighbor.
      for (int attempt = 0; attempt < 64; ++attempt) {
        const auto t = static_cast<NodeId>(rng.NextBounded(n));
        if (t == v || builder.HasEdge(v, t)) continue;
        builder.RemoveEdge(v, old_target);
        builder.AddEdge(v, t);
        break;
      }
    }
  }
  return builder.Build();
}

Graph BarabasiAlbert(std::size_t n, std::size_t m, Rng& rng) {
  SIOT_CHECK(m >= 1);
  SIOT_CHECK(n > m);
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(m * n);
  // Repeated-endpoint list: sampling an element uniformly is sampling a
  // node proportional to degree.
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * m * n);
  // Seed: star over the first m+1 nodes.
  for (NodeId v = 1; v <= m; ++v) {
    edges.emplace_back(0, v);
    endpoints.push_back(0);
    endpoints.push_back(v);
  }
  for (NodeId v = static_cast<NodeId>(m + 1); v < n; ++v) {
    // v links only to earlier nodes, so the edges it has so far are the
    // ones drawn in this step: those from `step_begin` on.
    const auto step_begin = static_cast<std::ptrdiff_t>(edges.size());
    std::size_t added = 0;
    std::size_t guard = 0;
    while (added < m && guard++ < 1000) {
      const NodeId target =
          endpoints[rng.NextBounded(endpoints.size())];
      if (target == v ||
          std::any_of(edges.begin() + step_begin, edges.end(),
                      [target](const auto& e) { return e.second == target; })) {
        continue;
      }
      edges.emplace_back(v, target);
      endpoints.push_back(v);
      endpoints.push_back(target);
      ++added;
    }
  }
  return Graph::FromEdgeList(n, edges);
}

namespace {

/// Draws community sizes summing to `total` with a floor of `min_size`
/// nodes per community. alpha > 0: deterministic power-law ranks (heavy
/// skew like the SNAP ego circles). alpha == 0: lognormal softmax with
/// spread 1/evenness.
std::vector<std::size_t> DrawCommunitySizes(std::size_t total,
                                            std::size_t communities,
                                            double alpha, double evenness,
                                            std::size_t min_size, Rng& rng) {
  SIOT_CHECK(communities >= 1);
  SIOT_CHECK(min_size >= 2);
  SIOT_CHECK(total >= communities * min_size);
  std::vector<double> weights(communities);
  if (alpha > 0.0) {
    for (std::size_t i = 0; i < communities; ++i) {
      weights[i] = std::pow(static_cast<double>(i + 1), -alpha);
    }
  } else {
    const double sigma = 1.0 / std::max(0.05, evenness);
    for (double& w : weights) w = std::exp(rng.Gaussian(0.0, sigma));
  }
  const double wsum = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<std::size_t> sizes(communities, min_size);
  std::size_t assigned = communities * min_size;
  // Proportional allocation of the remainder.
  std::vector<double> fractional(communities);
  const auto remainder = static_cast<double>(total - assigned);
  for (std::size_t c = 0; c < communities; ++c) {
    const double share = remainder * weights[c] / wsum;
    const auto whole = static_cast<std::size_t>(share);
    sizes[c] += whole;
    assigned += whole;
    fractional[c] = share - static_cast<double>(whole);
  }
  // Largest remainder for the leftover nodes.
  std::vector<std::size_t> order(communities);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return fractional[a] > fractional[b];
  });
  for (std::size_t i = 0; assigned < total; ++i) {
    ++sizes[order[i % communities]];
    ++assigned;
  }
  return sizes;
}

void BridgeComponents(GraphBuilder& builder, Rng& rng) {
  Graph g = builder.Build();
  auto component = ConnectedComponents(g);
  std::uint32_t component_count = 0;
  for (std::uint32_t c : component) {
    component_count = std::max(component_count, c + 1);
  }
  while (component_count > 1) {
    // Pick one random node in component 0 and one in another component.
    std::vector<NodeId> in0, rest;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      (component[v] == 0 ? in0 : rest).push_back(v);
    }
    const NodeId a = in0[rng.NextBounded(in0.size())];
    const NodeId b = rest[rng.NextBounded(rest.size())];
    builder.AddEdge(a, b);
    g = builder.Build();
    component = ConnectedComponents(g);
    component_count = 0;
    for (std::uint32_t c : component) {
      component_count = std::max(component_count, c + 1);
    }
  }
}

}  // namespace

void AdjustEdgeCount(GraphBuilder& builder, std::size_t target, Rng& rng) {
  const std::size_t n = builder.node_count();
  const std::size_t max_edges = n < 2 ? 0 : n * (n - 1) / 2;
  SIOT_CHECK_MSG(target <= max_edges, "target %zu exceeds max %zu", target,
                 max_edges);
  // Remove uniformly random existing edges while too many.
  while (builder.edge_count() > target) {
    const auto edges = builder.Edges();
    const std::size_t excess = builder.edge_count() - target;
    const auto victims =
        rng.SampleWithoutReplacement(edges.size(), excess);
    for (std::size_t i : victims) {
      builder.RemoveEdge(edges[i].first, edges[i].second);
    }
  }
  // Add uniformly random missing edges while too few.
  while (builder.edge_count() < target) {
    const auto a = static_cast<NodeId>(rng.NextBounded(n));
    const auto b = static_cast<NodeId>(rng.NextBounded(n));
    builder.AddEdge(a, b);
  }
}

void AdjustEdgeCountWithCommunities(
    GraphBuilder& builder, std::size_t target,
    const std::vector<std::uint32_t>& community, Rng& rng) {
  const std::size_t n = builder.node_count();
  SIOT_CHECK(community.size() == n);
  // Removals: uniform over existing edges (same as AdjustEdgeCount).
  while (builder.edge_count() > target) {
    const auto edges = builder.Edges();
    const std::size_t excess = builder.edge_count() - target;
    const auto victims = rng.SampleWithoutReplacement(edges.size(), excess);
    for (std::size_t i : victims) {
      builder.RemoveEdge(edges[i].first, edges[i].second);
    }
  }
  if (builder.edge_count() >= target) return;
  // Additions: draw both endpoints from the same community so the planted
  // structure (clustering, modularity) survives hitting the edge target.
  std::size_t community_count = 0;
  for (std::uint32_t c : community) {
    community_count = std::max<std::size_t>(community_count, c + 1);
  }
  std::vector<std::vector<NodeId>> members(community_count);
  for (NodeId v = 0; v < n; ++v) members[community[v]].push_back(v);
  std::size_t stale = 0;
  while (builder.edge_count() < target) {
    // After many failed intra attempts the blocks are saturated; fall back
    // to uniform pairs so the loop always terminates.
    if (stale > 64 * n) {
      AdjustEdgeCount(builder, target, rng);
      return;
    }
    const auto& block = members[rng.NextBounded(community_count)];
    if (block.size() < 2) {
      ++stale;
      continue;
    }
    const NodeId a = block[rng.NextBounded(block.size())];
    const NodeId b = block[rng.NextBounded(block.size())];
    if (builder.AddEdge(a, b)) {
      stale = 0;
    } else {
      ++stale;
    }
  }
}

StatusOr<CommunityGraph> GenerateCommunityGraph(
    const CommunityGraphParams& params, Rng& rng) {
  if (params.node_count < 2) {
    return Status::InvalidArgument("community graph needs >= 2 nodes");
  }
  if (params.community_count < 1 ||
      params.community_count * 2 > params.node_count) {
    return Status::InvalidArgument(
        "community_count must be in [1, node_count/2]");
  }
  if (params.p_intra < 0 || params.p_intra > 1 || params.p_inter < 0 ||
      params.p_inter > 1) {
    return Status::InvalidArgument("edge probabilities must be in [0,1]");
  }

  if (params.min_community_size < 2 ||
      params.min_community_size * params.community_count >
          params.node_count) {
    return Status::InvalidArgument(
        "min_community_size must be >= 2 and fit node_count");
  }
  const std::vector<std::size_t> sizes = DrawCommunitySizes(
      params.node_count, params.community_count, params.size_alpha,
      params.size_evenness, params.min_community_size, rng);

  CommunityGraph out{Graph(params.node_count),
                     std::vector<std::uint32_t>(params.node_count, 0)};
  // Assign contiguous node ranges to communities, then shuffle identities so
  // node id carries no community information.
  std::vector<NodeId> identity(params.node_count);
  std::iota(identity.begin(), identity.end(), 0);
  rng.Shuffle(identity);
  std::vector<std::vector<NodeId>> members(params.community_count);
  {
    std::size_t cursor = 0;
    for (std::size_t c = 0; c < params.community_count; ++c) {
      for (std::size_t i = 0; i < sizes[c]; ++i) {
        const NodeId v = identity[cursor++];
        out.community[v] = static_cast<std::uint32_t>(c);
        members[c].push_back(v);
      }
    }
  }

  GraphBuilder builder(params.node_count);
  // Intra-community: dense ER blocks (clustering ~ p_intra); small circles
  // become cliques when clique_size_threshold is set.
  for (const auto& block : members) {
    const bool clique = params.clique_size_threshold != 0 &&
                        block.size() <= params.clique_size_threshold;
    for (std::size_t i = 0; i < block.size(); ++i) {
      for (std::size_t j = i + 1; j < block.size(); ++j) {
        if (clique || rng.Bernoulli(params.p_intra)) {
          builder.AddEdge(block[i], block[j]);
        }
      }
    }
  }
  // Structured inter-community wiring. Order communities by descending
  // size; the tail_communities smallest hang off the ring as a chain, the
  // rest form a ring with ring_bridges edges per adjacent pair.
  std::vector<std::size_t> by_size(params.community_count);
  std::iota(by_size.begin(), by_size.end(), 0);
  std::sort(by_size.begin(), by_size.end(),
            [&sizes](std::size_t a, std::size_t b) {
              return sizes[a] > sizes[b];
            });
  const std::size_t tails =
      std::min(params.tail_communities,
               params.community_count > 2 ? params.community_count - 2 : 0);
  const std::size_t non_tail = params.community_count - tails;
  const std::size_t ring_size =
      params.ring_core == 0 ? non_tail
                            : std::min(std::max<std::size_t>(params.ring_core,
                                                             2),
                                       non_tail);

  auto add_bridges = [&](std::size_t c1, std::size_t c2, std::size_t count) {
    for (std::size_t e = 0; e < count; ++e) {
      const NodeId a = members[c1][rng.NextBounded(members[c1].size())];
      const NodeId b = members[c2][rng.NextBounded(members[c2].size())];
      builder.AddEdge(a, b);
    }
  };

  // Ring over the ring_size largest communities.
  if (ring_size >= 2) {
    for (std::size_t i = 0; i < ring_size; ++i) {
      const std::size_t c1 = by_size[i];
      const std::size_t c2 = by_size[(i + 1) % ring_size];
      if (c1 == c2) continue;
      add_bridges(c1, c2, std::max<std::size_t>(params.ring_bridges, 1));
    }
  }
  // Spokes: each non-core, non-tail community hangs off one of the top-3
  // communities (high-degree anchors resist Louvain merging).
  const std::size_t anchor_count = std::min<std::size_t>(3, ring_size);
  for (std::size_t i = ring_size; i < non_tail; ++i) {
    const std::size_t anchor = by_size[rng.NextBounded(anchor_count)];
    add_bridges(anchor, by_size[i],
                std::max<std::size_t>(params.spoke_bridges, 1));
  }
  // Tail chain: ring community -> smallest, second smallest, ... Each link
  // is a single edge, so eccentricities grow by the chain length.
  if (tails > 0) {
    std::size_t prev = by_size[rng.NextBounded(ring_size)];
    for (std::size_t t = 0; t < tails; ++t) {
      const std::size_t c = by_size[params.community_count - 1 - t];
      add_bridges(prev, c, 1);
      prev = c;
    }
  }
  // Random community-pair shortcuts (single edge each).
  for (std::size_t s = 0; s < params.shortcut_bridges; ++s) {
    const std::size_t c1 = rng.NextBounded(params.community_count);
    const std::size_t c2 = rng.NextBounded(params.community_count);
    if (c1 == c2) continue;
    add_bridges(c1, c2, 1);
  }
  // Optional uniform background wiring.
  if (params.p_inter > 0.0) {
    for (std::size_t c1 = 0; c1 < members.size(); ++c1) {
      for (std::size_t c2 = c1 + 1; c2 < members.size(); ++c2) {
        for (NodeId a : members[c1]) {
          for (NodeId b : members[c2]) {
            if (rng.Bernoulli(params.p_inter)) builder.AddEdge(a, b);
          }
        }
      }
    }
  }
  // Hubs: ego-like nodes that befriend many circles.
  const auto hub_count = static_cast<std::size_t>(
      std::ceil(params.hub_fraction * static_cast<double>(params.node_count)));
  for (std::size_t h = 0; h < hub_count; ++h) {
    const auto hub = static_cast<NodeId>(rng.NextBounded(params.node_count));
    for (std::size_t e = 0; e < params.hub_extra_edges; ++e) {
      const auto t = static_cast<NodeId>(rng.NextBounded(params.node_count));
      builder.AddEdge(hub, t);
    }
  }

  if (params.force_connected) BridgeComponents(builder, rng);
  if (params.target_edge_count != 0) {
    // Bridging after trimming can overshoot the target by the number of
    // bridges added, so alternate until both constraints hold (converges in
    // one or two rounds in practice — disconnection after a random trim is
    // rare at these densities).
    for (int round = 0; round < 16; ++round) {
      AdjustEdgeCountWithCommunities(builder, params.target_edge_count,
                                     out.community, rng);
      if (!params.force_connected) break;
      const std::size_t before = builder.edge_count();
      BridgeComponents(builder, rng);
      if (builder.edge_count() == before) break;
    }
  }

  out.graph = builder.Build();
  return out;
}

}  // namespace siot::graph
