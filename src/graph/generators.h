// Copyright 2026 The siot-trust Authors.
// Random graph generators. All are deterministic in their Rng argument.
//
// The community generator is the workhorse: it produces graphs with planted
// dense circles (the structure of the SNAP ego networks behind the paper's
// Table 1) whose clustering, modularity, and path statistics can be
// calibrated via CommunityGraphParams.

#ifndef SIOT_GRAPH_GENERATORS_H_
#define SIOT_GRAPH_GENERATORS_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/graph.h"

namespace siot::graph {

/// G(n, p): each pair independently connected with probability p.
/// Geometric skipping visits each pair at most once, so the edges go
/// straight into Graph::FromEdgeList: O(n + E), no hash set. The graph is
/// byte-identical to the one a GraphBuilder fed the same draws builds.
Graph ErdosRenyiGnp(std::size_t n, double p, Rng& rng);

/// G(n, m): exactly m distinct edges chosen uniformly.
Graph ErdosRenyiGnm(std::size_t n, std::size_t m, Rng& rng);

/// Watts–Strogatz small world: ring of n nodes, each linked to k nearest
/// neighbors (k even), each edge rewired with probability beta.
Graph WattsStrogatz(std::size_t n, std::size_t k, double beta, Rng& rng);

/// Barabási–Albert preferential attachment: each new node attaches m edges
/// (fewer only if 1000 draws in a row give no new target). A new node links
/// only to earlier nodes, so a draw is checked for duplicates by a scan of
/// the ≤ m targets of its own step, and the edges go straight into
/// Graph::FromEdgeList: O(n·m) draws and scans, no hash set. The draws,
/// and so the graph (byte for byte) and the Rng's final state, are those
/// of the same generator run through a GraphBuilder.
Graph BarabasiAlbert(std::size_t n, std::size_t m, Rng& rng);

/// Parameters of the planted-community (ego-circle) generator.
///
/// Structure: communities get sizes from a power-law (size_alpha > 0) or a
/// lognormal (size_alpha == 0, spread set by size_evenness). Intra-community
/// pairs are wired with probability p_intra (this pins the clustering
/// coefficient). Inter-community wiring is structured: the communities form
/// a ring (ring_bridges edges between adjacent communities), plus
/// shortcut_bridges random community-pair bridges (these control modularity
/// and average path length), plus optional uniform background wiring
/// p_inter. The tail_communities smallest communities are taken off the
/// ring and chained off one ring community instead, which stretches the
/// diameter the way real ego networks' peripheral circles do without moving
/// the average path length much.
struct CommunityGraphParams {
  /// Total node count.
  std::size_t node_count = 300;
  /// Number of planted communities.
  std::size_t community_count = 20;
  /// Power-law exponent for community sizes (size of rank-i community
  /// proportional to (i+1)^-size_alpha). 0 selects the lognormal model.
  double size_alpha = 0.0;
  /// Lognormal spread when size_alpha == 0: larger is more even.
  double size_evenness = 2.0;
  /// Minimum community size (>= 2).
  std::size_t min_community_size = 2;
  /// Intra-community edge probability (drives clustering coefficient).
  double p_intra = 0.55;
  /// Communities of at most this size are wired as cliques regardless of
  /// p_intra (small friend circles are cliques in ego networks; this also
  /// keeps Louvain from absorbing them). 0 disables.
  std::size_t clique_size_threshold = 0;
  /// Uniform background inter-community edge probability.
  double p_inter = 0.0;
  /// Edges between each ring-adjacent community pair.
  std::size_t ring_bridges = 2;
  /// Number of (largest) communities forming the ring core. Communities
  /// outside the core attach to one of the biggest communities by
  /// spoke_bridges edges instead — attaching small circles to high-degree
  /// communities keeps Louvain from merging them (the null-model term
  /// d_A * d_B / 2m beats a single bridge edge). 0 means all non-tail
  /// communities are on the ring.
  std::size_t ring_core = 0;
  /// Edges from each non-core community to a randomly chosen top-3
  /// community.
  std::size_t spoke_bridges = 1;
  /// Extra random community-pair bridges (1 edge each).
  std::size_t shortcut_bridges = 0;
  /// The tail_communities smallest communities are chained off the ring.
  std::size_t tail_communities = 0;
  /// Fraction of nodes promoted to hubs with links into many communities
  /// (ego nodes); raises max degree and shrinks the diameter.
  double hub_fraction = 0.0;
  /// Edges added from each hub to random non-neighbors.
  std::size_t hub_extra_edges = 0;
  /// If nonzero, the generator adds/removes edges at the end until the edge
  /// count equals this target exactly. Additions prefer intra-community
  /// pairs so the planted structure survives the adjustment.
  std::size_t target_edge_count = 0;
  /// Ensure the graph is connected by bridging components.
  bool force_connected = true;
};

/// Community assignment produced alongside a generated graph.
struct CommunityGraph {
  Graph graph;
  /// Planted community id per node.
  std::vector<std::uint32_t> community;
};

/// Generates a planted-community graph; see CommunityGraphParams.
StatusOr<CommunityGraph> GenerateCommunityGraph(
    const CommunityGraphParams& params, Rng& rng);

/// Adjusts `builder` by random additions (within allowed pairs) or removals
/// until it has exactly `target` edges. Used to pin Table-1 edge counts.
void AdjustEdgeCount(GraphBuilder& builder, std::size_t target, Rng& rng);

/// Like AdjustEdgeCount, but additions draw both endpoints from the same
/// community (falling back to uniform pairs once blocks saturate), so the
/// planted structure survives the adjustment.
void AdjustEdgeCountWithCommunities(
    GraphBuilder& builder, std::size_t target,
    const std::vector<std::uint32_t>& community, Rng& rng);

}  // namespace siot::graph

#endif  // SIOT_GRAPH_GENERATORS_H_
