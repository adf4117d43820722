// Copyright 2026 The siot-trust Authors.

#include "trust/transitivity.h"

#include <algorithm>

#include "common/macros.h"
#include "trust/overlay_snapshot.h"

namespace siot::trust {

double ChainProductTransitivity(const std::vector<double>& values) {
  double product = 1.0;
  for (double v : values) product *= v;
  return product;
}

double TwoSidedCombine(double a, double b) {
  // Eq. 7: a·b + (1−a)(1−b) = 1 − a − b + 2ab.
  return 1.0 - a - b + 2.0 * a * b;
}

double ChainTwoSidedTransitivity(const std::vector<double>& values) {
  SIOT_CHECK(!values.empty());
  double acc = values.front();
  for (std::size_t i = 1; i < values.size(); ++i) {
    acc = TwoSidedCombine(acc, values[i]);
  }
  return acc;
}

std::string_view TransitivityMethodName(TransitivityMethod method) {
  switch (method) {
    case TransitivityMethod::kTraditional:
      return "Traditional";
    case TransitivityMethod::kConservative:
      return "Conservative";
    case TransitivityMethod::kAggressive:
      return "Aggressive";
  }
  return "?";
}

std::vector<TaskExperience> StoreTrustOverlay::DirectExperience(
    AgentId observer, AgentId subject) const {
  std::vector<TaskExperience> out;
  const auto records = store_.PairRecords(observer, subject);
  out.reserve(records.size());
  for (const PairTaskRecord& entry : records) {
    out.push_back({entry.task, TrustworthinessFromEstimates(
                                   entry.record.estimates, normalizer_)});
  }
  return out;
}

namespace {

constexpr double kUnset = -1.0;

/// Per-directed-hop trust information for one target task.
struct HopInfo {
  /// Per-task-characteristic inferred value (Eq. 4 inner average);
  /// kUnset where the observer has no covering experience.
  std::vector<double> per_characteristic;
  /// True if every characteristic of the task is covered on this hop.
  bool complete = false;
};

HopInfo MakeHopInfo(const TaskCatalog& catalog, const Task& task,
                    const std::vector<TaskExperience>& experiences) {
  HopInfo info;
  const std::size_t parts = task.parts().size();
  const PartialInference inference = PartialInfer(catalog, task, experiences);
  info.per_characteristic.assign(parts, kUnset);
  for (std::size_t i = 0; i < parts; ++i) {
    const CharacteristicId c = task.parts()[i].id;
    if ((inference.covered >> c) & 1ull) {
      info.per_characteristic[i] = inference.per_characteristic[i];
    }
  }
  info.complete = inference.complete;
  return info;
}

void BuildExactCache(const TrustOverlaySnapshot& snapshot, const Task& task,
                     std::vector<double>& exact) {
  const std::size_t edges = snapshot.directed_edge_count();
  exact.assign(edges, kUnset);
  for (std::size_t e = 0; e < edges; ++e) {
    for (const TaskExperience& exp : snapshot.Experiences(e)) {
      if (exp.task == task.id()) {
        exact[e] = exp.trustworthiness;
        break;
      }
    }
  }
}

void BuildHopCache(const TrustOverlaySnapshot& snapshot,
                   const TaskCatalog& catalog, const Task& task,
                   std::vector<HopInfo>& hops) {
  const std::size_t edges = snapshot.directed_edge_count();
  hops.clear();
  hops.resize(edges);
  std::vector<TaskExperience> experiences;
  for (std::size_t e = 0; e < edges; ++e) {
    const auto span = snapshot.Experiences(e);
    experiences.assign(span.begin(), span.end());
    hops[e] = MakeHopInfo(catalog, task, experiences);
  }
}

void ValidateParams(const TransitivityParams& params) {
  // The hop-relaxation takes per-node maxima, which is exactly optimal
  // when every propagated hop value is >= 0.5 (Eq. 7 is then monotone in
  // its accumulated argument) — guaranteed when ω1 >= 0.5. Below 0.5 the
  // search still finds exactly the right set of potential trustees
  // (coverage and gating are unaffected); only the reported
  // trustworthiness magnitudes become a greedy approximation.
  SIOT_CHECK_MSG(params.omega1 >= 0.0 && params.omega1 <= 1.0,
                 "omega1=%f must be in [0, 1]", params.omega1);
  SIOT_CHECK_MSG(params.omega2 >= 0.0 && params.omega2 <= 1.0,
                 "omega2=%f must be in [0, 1]", params.omega2);
  SIOT_CHECK(params.max_hops >= 1);
}

void SortTrustees(std::vector<PotentialTrustee>& trustees) {
  std::sort(trustees.begin(), trustees.end(),
            [](const PotentialTrustee& a, const PotentialTrustee& b) {
              if (a.trustworthiness != b.trustworthiness) {
                return a.trustworthiness > b.trustworthiness;
              }
              return a.agent < b.agent;
            });
}

// `exact[e]` is the trustworthiness of the exact task along directed edge
// e, or kUnset.
TransitivityResult SearchTraditional(const TrustOverlaySnapshot& snapshot,
                                     const TransitivityParams& params,
                                     AgentId trustor, const Task& task,
                                     const std::vector<double>& exact) {
  const graph::Graph& graph = snapshot.graph();
  const std::size_t n = graph.node_count();
  // best[v]: best Eq. 5 path product from trustor to v over viable hops
  // (every hop holds a record for the exact task).
  std::vector<double> best(n, kUnset);
  std::vector<double> next(n, kUnset);
  best[trustor] = 1.0;

  std::vector<bool> reached(n, false);
  for (std::size_t hop = 0; hop < params.max_hops; ++hop) {
    next = best;
    bool changed = false;
    for (graph::NodeId u = 0; u < n; ++u) {
      if (best[u] == kUnset) continue;
      const auto neighbors = graph.Neighbors(u);
      const std::size_t first_edge = snapshot.FirstEdge(u);
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const graph::NodeId v = neighbors[k];
        if (v == trustor) continue;
        const double t = exact[first_edge + k];
        if (t <= 0.0) continue;  // Eq. 5: positive trust transfers freely
        const double candidate = best[u] * t;
        reached[v] = true;
        if (candidate > next[v]) {
          next[v] = candidate;
          changed = true;
        }
      }
    }
    best.swap(next);
    if (!changed) break;
  }

  TransitivityResult result;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (v == trustor) continue;
    if (reached[v]) ++result.inquired_nodes;
    if (best[v] == kUnset) continue;
    if (params.trustee_eligible && !params.trustee_eligible(v)) continue;
    PotentialTrustee trustee;
    trustee.agent = v;
    trustee.trustworthiness = best[v];
    trustee.per_characteristic.assign(task.parts().size(), best[v]);
    result.trustees.push_back(std::move(trustee));
  }
  SortTrustees(result.trustees);
  return result;
}

// `hops[e]` is the HopInfo of directed edge e.
TransitivityResult SearchCharacteristicBased(
    const TrustOverlaySnapshot& snapshot, const TransitivityParams& params,
    AgentId trustor, const Task& task, bool conservative,
    const std::vector<HopInfo>& hops) {
  const graph::Graph& graph = snapshot.graph();
  const std::size_t n = graph.node_count();
  const std::size_t parts = task.parts().size();

  // reach[v][i]: best Eq. 7 fold of characteristic i carried to v via
  // recommendation hops (each hop value >= omega1). trustee_val[v][i]: best
  // value whose FINAL hop satisfies the trustee gate omega2.
  std::vector<std::vector<double>> reach(n,
                                         std::vector<double>(parts, kUnset));
  std::vector<std::vector<double>> trustee_val(
      n, std::vector<double>(parts, kUnset));
  std::vector<bool> reached(n, false);

  // Identity: characteristics start at the trustor un-attenuated.
  // (Represented implicitly: a first hop's value is the hop value itself.)
  std::vector<std::vector<double>> next = reach;
  for (std::size_t hop = 0; hop < params.max_hops; ++hop) {
    next = reach;
    bool changed = false;
    for (graph::NodeId u = 0; u < n; ++u) {
      const bool u_is_source = (u == trustor);
      if (!u_is_source) {
        bool u_active = false;
        for (std::size_t i = 0; i < parts; ++i) {
          if (reach[u][i] != kUnset) {
            u_active = true;
            break;
          }
        }
        if (!u_active) continue;
      }
      const auto neighbors = graph.Neighbors(u);
      const std::size_t first_edge = snapshot.FirstEdge(u);
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const graph::NodeId v = neighbors[k];
        if (v == trustor) continue;
        const HopInfo& info = hops[first_edge + k];
        // Conservative transitivity requires every hop to cover the whole
        // task (Eq. 8); aggressive lets any covered characteristic hop.
        if (conservative && !info.complete) continue;
        bool hop_useful = false;
        for (std::size_t i = 0; i < parts; ++i) {
          const double t = info.per_characteristic[i];
          if (t == kUnset) continue;
          const double upstream = u_is_source ? kUnset : reach[u][i];
          if (!u_is_source && upstream == kUnset) continue;
          // Candidate value of characteristic i at v through u.
          const double via =
              u_is_source ? t : TwoSidedCombine(upstream, t);
          // Recommendation propagation: gate by omega1.
          if (t >= params.omega1) {
            hop_useful = true;
            if (via > next[v][i]) {
              next[v][i] = via;
              changed = true;
            }
          }
          // Trustee terminal hop: gate by omega2.
          if (t >= params.omega2) {
            hop_useful = true;
            if (via > trustee_val[v][i]) trustee_val[v][i] = via;
          }
        }
        if (hop_useful) reached[v] = true;
      }
    }
    reach.swap(next);
    if (!changed) break;
  }

  TransitivityResult result;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (v == trustor) continue;
    if (reached[v]) ++result.inquired_nodes;
    // Trustee condition: every characteristic arrives through a terminal
    // hop meeting omega2 (conservative paths additionally required full
    // coverage on every hop, enforced above).
    bool complete = true;
    for (std::size_t i = 0; i < parts; ++i) {
      if (trustee_val[v][i] == kUnset) {
        complete = false;
        break;
      }
    }
    if (!complete) continue;
    if (params.trustee_eligible && !params.trustee_eligible(v)) continue;
    PotentialTrustee trustee;
    trustee.agent = v;
    trustee.per_characteristic = trustee_val[v];
    // Eq. 17: weight-combine the per-characteristic assessments.
    double combined = 0.0;
    for (std::size_t i = 0; i < parts; ++i) {
      combined += task.parts()[i].weight * trustee_val[v][i];
    }
    trustee.trustworthiness = combined;
    result.trustees.push_back(std::move(trustee));
  }
  SortTrustees(result.trustees);
  return result;
}

}  // namespace

/// One task's per-directed-edge hop information, indexed by the
/// snapshot's dense directed-edge index.
struct TransitivitySearch::TaskCache {
  bool prepared = false;
  /// Exact-task trustworthiness per edge (traditional method).
  std::vector<double> exact;
  /// Eq. 4 partial inference per edge (characteristic-based methods).
  std::vector<HopInfo> hops;
};

TransitivitySearch::TransitivitySearch(const TrustOverlaySnapshot& snapshot,
                                       const TaskCatalog& catalog,
                                       TransitivityParams params)
    : snapshot_(snapshot), catalog_(catalog), params_(std::move(params)) {
  ValidateParams(params_);
}

TransitivitySearch::~TransitivitySearch() = default;

void TransitivitySearch::Seal() { sealed_ = true; }

void TransitivitySearch::PrepareTasks(const std::vector<TaskId>& tasks,
                                      const PrepareExecutor& executor) {
  SIOT_CHECK_MSG(!sealed_, "PrepareTasks on a sealed TransitivitySearch");
  // Claim the slots serially; the heavy fills then write only their own
  // slot, so they can run concurrently.
  std::vector<TaskId> pending;
  for (const TaskId task : tasks) {
    (void)catalog_.Get(task);  // dies on an id outside the catalog
    if (task >= caches_.size()) caches_.resize(task + 1);
    if (caches_[task].prepared) continue;
    caches_[task].prepared = true;
    pending.push_back(task);
  }
  const auto build = [this, &pending](std::size_t i) {
    TaskCache& cache = caches_[pending[i]];
    const Task& task = catalog_.Get(pending[i]);
    BuildExactCache(snapshot_, task, cache.exact);
    BuildHopCache(snapshot_, catalog_, task, cache.hops);
  };
  if (executor) {
    executor(pending.size(), build);
  } else {
    for (std::size_t i = 0; i < pending.size(); ++i) build(i);
  }
}

TransitivityResult TransitivitySearch::FindPotentialTrustees(
    AgentId trustor, const Task& task, TransitivityMethod method) const {
  SIOT_CHECK(trustor < snapshot_.graph().node_count());
  SIOT_CHECK_MSG(task.id() < caches_.size() && caches_[task.id()].prepared,
                 "query for unprepared task %u on a TransitivitySearch",
                 static_cast<unsigned>(task.id()));
  const TaskCache& cache = caches_[task.id()];
  switch (method) {
    case TransitivityMethod::kTraditional:
      return SearchTraditional(snapshot_, params_, trustor, task, cache.exact);
    case TransitivityMethod::kConservative:
      return SearchCharacteristicBased(snapshot_, params_, trustor, task,
                                       /*conservative=*/true, cache.hops);
    case TransitivityMethod::kAggressive:
      return SearchCharacteristicBased(snapshot_, params_, trustor, task,
                                       /*conservative=*/false, cache.hops);
  }
  return {};
}

}  // namespace siot::trust
