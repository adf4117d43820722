// Copyright 2026 The siot-trust Authors.

#include "tests/support/reference_generators.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace siot::graph {

Graph ReferenceErdosRenyiGnp(std::size_t n, double p, Rng& rng) {
  SIOT_CHECK(p >= 0.0 && p <= 1.0);
  GraphBuilder builder(n);
  if (p <= 0.0 || n < 2) return builder.Build();
  if (p >= 1.0) {
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) builder.AddEdge(a, b);
    }
    return builder.Build();
  }
  // Geometric skipping (Batagelj–Brandes): O(n + m) instead of O(n^2).
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
      builder.AddEdge(static_cast<NodeId>(v), static_cast<NodeId>(w));
    }
  }
  return builder.Build();
}

Graph ReferenceBarabasiAlbert(std::size_t n, std::size_t m, Rng& rng) {
  SIOT_CHECK(m >= 1);
  SIOT_CHECK(n > m);
  GraphBuilder builder(n);
  // Repeated-endpoint list: sampling an element uniformly is sampling a
  // node proportional to degree.
  std::vector<NodeId> endpoints;
  // Seed: star over the first m+1 nodes.
  for (NodeId v = 1; v <= m; ++v) {
    builder.AddEdge(0, v);
    endpoints.push_back(0);
    endpoints.push_back(v);
  }
  for (NodeId v = static_cast<NodeId>(m + 1); v < n; ++v) {
    std::size_t added = 0;
    std::size_t guard = 0;
    while (added < m && guard++ < 1000) {
      const NodeId target =
          endpoints[rng.NextBounded(endpoints.size())];
      if (target == v || builder.HasEdge(v, target)) continue;
      builder.AddEdge(v, target);
      endpoints.push_back(v);
      endpoints.push_back(target);
      ++added;
    }
  }
  return builder.Build();
}

}  // namespace siot::graph
