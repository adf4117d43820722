// Copyright 2026 The siot-trust Authors.

#include "trust/transitivity.h"

#include <algorithm>
#include <cstdint>
#include <span>

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

// Fills the per-edge hop information of `task`: `per_characteristic`
// holds at [e · parts + i] the Eq. 4 inner average of part i along directed
// edge e, or kUnset where the observer has no covering experience;
// `complete[e]` is true when edge e covers every characteristic.
void BuildHopCache(const TrustOverlaySnapshot& snapshot,
                   const TaskCatalog& catalog, const Task& task,
                   std::vector<double>& per_characteristic,
                   std::vector<bool>& complete) {
  const std::size_t edges = snapshot.directed_edge_count();
  const std::size_t parts = task.parts().size();
  per_characteristic.assign(edges * parts, kUnset);
  complete.assign(edges, false);
  for (std::size_t e = 0; e < edges; ++e) {
    const CharacteristicMask covered = InferPerCharacteristic(
        catalog, task, snapshot.Experiences(e),
        std::span(per_characteristic).subspan(e * parts, parts));
    complete[e] = task.CoveredBy(covered);
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

/// One thread's query buffers. `reach`, `next` and `trustee_val` are
/// row-major n × parts arrays (the traditional search uses one column);
/// `reached` and `queued` are per-node flags. Between queries every value
/// is kUnset and every flag 0: a query writes only the rows of the nodes
/// it lists in `touched`, and its lease resets exactly those rows, so a
/// query never pays for the nodes it does not reach.
struct Scratch {
  std::vector<double> reach;
  std::vector<double> next;
  std::vector<double> trustee_val;
  std::vector<std::uint8_t> reached;
  std::vector<std::uint8_t> queued;
  /// Nodes whose `reach` rose in the previous hop, ascending.
  std::vector<graph::NodeId> frontier;
  /// Nodes whose `next` rose in the current hop.
  std::vector<graph::NodeId> changed;
  /// Every node whose rows or flags this query wrote.
  std::vector<graph::NodeId> touched;
  /// Set while a ScratchLease holds these buffers.
  bool busy = false;
};

/// Lends the calling thread's Scratch to one query, sized for n × parts,
/// and cleans it when the query ends, also on an exception.
class ScratchLease {
 public:
  ScratchLease(std::size_t n, std::size_t parts)
      : s_(ThreadScratch()), parts_(parts) {
    SIOT_CHECK_MSG(!s_.busy,
                   "TransitivitySearch query from a trustee_eligible callback");
    s_.busy = true;
    if (s_.reach.size() < n * parts) {
      s_.reach.resize(n * parts, kUnset);
      s_.next.resize(n * parts, kUnset);
      s_.trustee_val.resize(n * parts, kUnset);
    }
    if (s_.reached.size() < n) {
      s_.reached.resize(n, 0);
      s_.queued.resize(n, 0);
    }
    // Each list holds distinct nodes, so with n reserved no push_back
    // inside the hop loop can reallocate.
    s_.frontier.reserve(n);
    s_.changed.reserve(n);
    s_.touched.reserve(n);
  }

  ~ScratchLease() {
    for (const graph::NodeId v : s_.touched) {
      const std::size_t row = v * parts_;
      std::fill_n(s_.reach.begin() + row, parts_, kUnset);
      std::fill_n(s_.next.begin() + row, parts_, kUnset);
      std::fill_n(s_.trustee_val.begin() + row, parts_, kUnset);
      s_.reached[v] = 0;
      s_.queued[v] = 0;
    }
    s_.frontier.clear();
    s_.changed.clear();
    s_.touched.clear();
    s_.busy = false;
  }

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  Scratch& scratch() { return s_; }

 private:
  static Scratch& ThreadScratch() {
    thread_local Scratch scratch;
    return scratch;
  }

  Scratch& s_;
  std::size_t parts_;
};

void MarkReached(Scratch& s, graph::NodeId v) {
  if (s.reached[v]) return;
  s.reached[v] = 1;
  s.touched.push_back(v);
}

void MarkChanged(Scratch& s, graph::NodeId v) {
  if (s.queued[v]) return;
  s.queued[v] = 1;
  s.changed.push_back(v);
}

/// Ends one synchronous hop: copies the rows whose `next` rose back into
/// `reach` and makes those nodes the next frontier. The frontier is kept
/// ascending, the order in which a scan over all n nodes meets them, so
/// equal candidates tie-break as they did in that scan. False when nothing
/// rose: the search has converged.
bool AdvanceFrontier(Scratch& s, std::size_t parts) {
  for (const graph::NodeId v : s.changed) {
    std::copy_n(s.next.begin() + v * parts, parts,
                s.reach.begin() + v * parts);
    s.queued[v] = 0;
  }
  std::sort(s.changed.begin(), s.changed.end());
  s.frontier.swap(s.changed);
  s.changed.clear();
  return !s.frontier.empty();
}

// Every hop relaxes only the frontier. A node outside it holds the value
// it held when it last relaxed, so relaxing it again could only offer
// candidates its neighbours already hold: values only ever rise.
//
// `exact[e]` is the trustworthiness of the exact task along directed edge
// e, or kUnset.
TransitivityResult SearchTraditional(const TrustOverlaySnapshot& snapshot,
                                     const TransitivityParams& params,
                                     AgentId trustor, const Task& task,
                                     const std::vector<double>& exact) {
  const graph::Graph& graph = snapshot.graph();
  ScratchLease lease(graph.node_count(), 1);
  Scratch& s = lease.scratch();
  // reach[v]: best Eq. 5 path product from trustor to v over viable hops
  // (every hop holds a record for the exact task).
  s.reach[trustor] = 1.0;
  s.next[trustor] = 1.0;
  s.touched.push_back(trustor);
  s.frontier.push_back(trustor);
  for (std::size_t hop = 0; hop < params.max_hops; ++hop) {
    for (const graph::NodeId u : s.frontier) {
      const auto neighbors = graph.Neighbors(u);
      const std::size_t first_edge = snapshot.FirstEdge(u);
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const graph::NodeId v = neighbors[k];
        if (v == trustor) continue;
        const double t = exact[first_edge + k];
        if (t <= 0.0) continue;  // Eq. 5: positive trust transfers freely
        const double candidate = s.reach[u] * t;
        MarkReached(s, v);
        if (candidate > s.next[v]) {
          s.next[v] = candidate;
          MarkChanged(s, v);
        }
      }
    }
    if (!AdvanceFrontier(s, 1)) break;
  }

  TransitivityResult result;
  std::sort(s.touched.begin(), s.touched.end());
  for (const graph::NodeId v : s.touched) {
    if (v == trustor) continue;
    ++result.inquired_nodes;
    if (s.reach[v] == kUnset) continue;
    if (params.trustee_eligible && !params.trustee_eligible(v)) continue;
    PotentialTrustee trustee;
    trustee.agent = v;
    trustee.trustworthiness = s.reach[v];
    trustee.per_characteristic.assign(task.parts().size(), s.reach[v]);
    result.trustees.push_back(std::move(trustee));
  }
  SortTrustees(result.trustees);
  return result;
}

// Frontier-driven like SearchTraditional. `hop_values` and `complete` are
// the task's BuildHopCache arrays.
TransitivityResult SearchCharacteristicBased(
    const TrustOverlaySnapshot& snapshot, const TransitivityParams& params,
    AgentId trustor, const Task& task, bool conservative,
    const std::vector<double>& hop_values, const std::vector<bool>& complete) {
  const graph::Graph& graph = snapshot.graph();
  const std::size_t parts = task.parts().size();
  ScratchLease lease(graph.node_count(), parts);
  Scratch& s = lease.scratch();

  // reach row v, column i: best Eq. 7 fold of characteristic i carried to
  // v via recommendation hops (each hop value >= omega1). trustee_val:
  // best value whose FINAL hop satisfies the trustee gate omega2.
  // The trustor is the source: a first hop's value is the hop value itself.
  s.frontier.push_back(trustor);
  for (std::size_t hop = 0; hop < params.max_hops; ++hop) {
    for (const graph::NodeId u : s.frontier) {
      const bool u_is_source = (u == trustor);
      const double* upstream_row = s.reach.data() + u * parts;
      const auto neighbors = graph.Neighbors(u);
      const std::size_t first_edge = snapshot.FirstEdge(u);
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const graph::NodeId v = neighbors[k];
        if (v == trustor) continue;
        const std::size_t e = first_edge + k;
        // Conservative transitivity requires every hop to cover the whole
        // task (Eq. 8); aggressive lets any covered characteristic hop.
        if (conservative && !complete[e]) continue;
        const double* hop_row = hop_values.data() + e * parts;
        double* next_row = s.next.data() + v * parts;
        double* trustee_row = s.trustee_val.data() + v * parts;
        bool hop_useful = false;
        for (std::size_t i = 0; i < parts; ++i) {
          const double t = hop_row[i];
          if (t == kUnset) continue;
          const double upstream = u_is_source ? kUnset : upstream_row[i];
          if (!u_is_source && upstream == kUnset) continue;
          // Candidate value of characteristic i at v through u.
          const double via =
              u_is_source ? t : TwoSidedCombine(upstream, t);
          // Recommendation propagation: gate by omega1.
          if (t >= params.omega1) {
            hop_useful = true;
            if (via > next_row[i]) {
              next_row[i] = via;
              MarkChanged(s, v);
            }
          }
          // Trustee terminal hop: gate by omega2.
          if (t >= params.omega2) {
            hop_useful = true;
            if (via > trustee_row[i]) trustee_row[i] = via;
          }
        }
        if (hop_useful) MarkReached(s, v);
      }
    }
    if (!AdvanceFrontier(s, parts)) break;
  }

  TransitivityResult result;
  std::sort(s.touched.begin(), s.touched.end());
  for (const graph::NodeId v : s.touched) {
    ++result.inquired_nodes;
    // Trustee condition: every characteristic arrives through a terminal
    // hop meeting omega2 (conservative paths additionally required full
    // coverage on every hop, enforced above).
    const double* trustee_row = s.trustee_val.data() + v * parts;
    if (std::find(trustee_row, trustee_row + parts, kUnset) !=
        trustee_row + parts) {
      continue;
    }
    if (params.trustee_eligible && !params.trustee_eligible(v)) continue;
    PotentialTrustee trustee;
    trustee.agent = v;
    trustee.per_characteristic.assign(trustee_row, trustee_row + parts);
    // Eq. 17: weight-combine the per-characteristic assessments.
    double combined = 0.0;
    for (std::size_t i = 0; i < parts; ++i) {
      combined += task.parts()[i].weight * trustee_row[i];
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
  /// Eq. 4 partial inference, [edge × parts] (characteristic-based
  /// methods), and per edge whether it covers the whole task.
  std::vector<double> per_characteristic;
  std::vector<bool> complete;
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
    BuildHopCache(snapshot_, catalog_, task, cache.per_characteristic,
                  cache.complete);
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
  SIOT_CHECK(cache.per_characteristic.size() ==
             cache.exact.size() * task.parts().size());
  switch (method) {
    case TransitivityMethod::kTraditional:
      return SearchTraditional(snapshot_, params_, trustor, task, cache.exact);
    case TransitivityMethod::kConservative:
      return SearchCharacteristicBased(snapshot_, params_, trustor, task,
                                       /*conservative=*/true,
                                       cache.per_characteristic,
                                       cache.complete);
    case TransitivityMethod::kAggressive:
      return SearchCharacteristicBased(snapshot_, params_, trustor, task,
                                       /*conservative=*/false,
                                       cache.per_characteristic,
                                       cache.complete);
  }
  return {};
}

}  // namespace siot::trust
