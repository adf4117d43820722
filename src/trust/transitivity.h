// Copyright 2026 The siot-trust Authors.
// Transitivity of trust (paper §4.3, Eqs. 5–17).
//
// When trustor X and a potential trustee Y share no direct experience,
// trustworthiness transfers along social paths of intermediate nodes. The
// paper clarifies three schemes:
//
//  * Traditional (Eq. 5): unrestricted path product — trust transfers as
//    long as every consecutive pair has a record *for the exact task*.
//  * Two-sided combination (Eq. 7): a hop combines recommendation trust a
//    and next-hop trust b as a·b + (1−a)·(1−b) — the second term (mistrust
//    of the recommender times the recommender's own misjudgment) is what
//    existing models drop.
//  * Conservative (Eqs. 8–11): transfer only along hops whose experienced
//    tasks cover ALL characteristics of the new task (per-hop inference by
//    Eq. 4), gated by ω1 (recommenders) and ω2 (trustee).
//  * Aggressive (Eqs. 12–17): different characteristics may travel
//    different paths; a node is a potential trustee once the union of
//    arriving characteristic assessments covers the whole task and the
//    trustee itself has experienced every characteristic.
//
// The search is a hop-bounded relaxation over the social graph and reports
// the paper's §5.5 metrics: potential trustees with task-level
// trustworthiness, and the number of inquired nodes (search overhead,
// Fig. 12).

#ifndef SIOT_TRUST_TRANSITIVITY_H_
#define SIOT_TRUST_TRANSITIVITY_H_

#include <functional>
#include <vector>

#include "graph/graph.h"
#include "trust/inference.h"
#include "trust/task.h"
#include "trust/trust_store.h"
#include "trust/types.h"

namespace siot::trust {

/// Eq. 5: plain product of trustworthiness values along a path.
double ChainProductTransitivity(const std::vector<double>& values);

/// Eq. 7: TW_A←C = a·b + (1−a)·(1−b) for recommendation trust a and
/// next-hop trust b.
double TwoSidedCombine(double a, double b);

/// Eq. 7 folded along a path (left fold; single element returns itself).
double ChainTwoSidedTransitivity(const std::vector<double>& values);

/// The three §4.3 schemes.
enum class TransitivityMethod {
  kTraditional,
  kConservative,
  kAggressive,
};

std::string_view TransitivityMethodName(TransitivityMethod method);

/// View of the trust overlay: the direct experiences an observer holds
/// about an adjacent subject. Implemented over TrustStore for production
/// use and over synthetic tables in the simulations.
class TrustOverlay {
 public:
  virtual ~TrustOverlay() = default;
  /// Tasks `observer` has direct experience about `subject`, with their
  /// Eq. 18 trustworthiness values.
  virtual std::vector<TaskExperience> DirectExperience(
      AgentId observer, AgentId subject) const = 0;
};

/// TrustOverlay backed by a TrustStore. One pair-major probe per call.
class StoreTrustOverlay : public TrustOverlay {
 public:
  StoreTrustOverlay(const TrustStore& store, const Normalizer& normalizer)
      : store_(store), normalizer_(normalizer) {}
  std::vector<TaskExperience> DirectExperience(
      AgentId observer, AgentId subject) const override;

 private:
  const TrustStore& store_;
  Normalizer normalizer_;
};

class TrustOverlaySnapshot;

/// Search configuration.
struct TransitivityParams {
  /// ω1: minimum per-hop trustworthiness for recommendation hops.
  double omega1 = 0.5;
  /// ω2: minimum trustworthiness for the final (trustee) hop.
  double omega2 = 0.5;
  /// Maximum path length in hops (edges).
  std::size_t max_hops = 6;
  /// Optional filter restricting which agents may serve as trustees
  /// (intermediates are unrestricted). Null accepts every agent. It runs
  /// inside a query and must not itself query a TransitivitySearch.
  std::function<bool(AgentId)> trustee_eligible;
};

/// One potential trustee found by the search.
struct PotentialTrustee {
  AgentId agent = kNoAgent;
  /// Task-level transferred trustworthiness (Eq. 5 / Eq. 11 / Eq. 17).
  double trustworthiness = 0.0;
  /// Per-characteristic transferred values aligned with task.parts()
  /// (traditional method fills all entries with the task value).
  std::vector<double> per_characteristic;
};

/// Search output with the §5.5 metrics.
struct TransitivityResult {
  /// Potential trustees sorted by descending trustworthiness (ties by id).
  std::vector<PotentialTrustee> trustees;
  /// Number of distinct nodes the delegation request reached (excluding
  /// the trustor) — the Fig. 12 search overhead.
  std::size_t inquired_nodes = 0;
};

/// Hop-bounded transitivity search over a TrustOverlaySnapshot.
///
/// Hop information (Eq. 4 partial inference and exact-task
/// trustworthiness per directed edge) is computed once per task by
/// PrepareTasks, indexed by the snapshot's dense directed-edge index, and
/// reused by every query for that task — the §5.5 experiments ask the
/// same few tasks from hundreds of trustors. PrepareTasks is the only
/// writer of those caches; FindPotentialTrustees only reads them and
/// dies on a task that was not prepared. So once preparation is done,
/// one search may be shared by any number of query threads.
///
/// A query's working arrays are per-thread scratch, reused across queries
/// and searches and reset row by row for just the nodes the query
/// reached; once a thread's scratch has grown to the largest n × parts it
/// has seen, a query allocates only its result. Each hop relaxes only
/// the frontier, the nodes whose value rose in the previous hop, so a
/// query costs in proportion to the edges its frontiers cover, not to
/// n × max_hops.
class TransitivitySearch {
 public:
  /// Both references must outlive the search object.
  TransitivitySearch(const TrustOverlaySnapshot& snapshot,
                     const TaskCatalog& catalog, TransitivityParams params);

  ~TransitivitySearch();

  /// Executor for PrepareTasks: invokes fn(i) for every i in [0, count),
  /// possibly concurrently (e.g. adapt sim::ParallelRunner::ForEach).
  using PrepareExecutor = std::function<void(
      std::size_t count, const std::function<void(std::size_t)>& fn)>;

  /// Builds the per-task hop caches for every distinct task in `tasks`
  /// that is not prepared yet. The per-task builds are independent and
  /// are handed to `executor` (serial loop when omitted). Must not run
  /// concurrently with a query.
  void PrepareTasks(const std::vector<TaskId>& tasks,
                    const PrepareExecutor& executor = {});

  /// Freezes the task set: a later PrepareTasks trips SIOT_CHECK. The
  /// serving layer seals before publishing a search behind a const
  /// handle.
  void Seal();

  /// Finds potential trustees of `trustor` for `task` under `method`.
  /// `task` must have been prepared.
  TransitivityResult FindPotentialTrustees(AgentId trustor, const Task& task,
                                           TransitivityMethod method) const;

 private:
  struct TaskCache;

  const TrustOverlaySnapshot& snapshot_;
  const TaskCatalog& catalog_;
  TransitivityParams params_;
  /// Indexed by task id; filled only by PrepareTasks.
  std::vector<TaskCache> caches_;
  bool sealed_ = false;
};

}  // namespace siot::trust

#endif  // SIOT_TRUST_TRANSITIVITY_H_
