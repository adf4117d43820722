// Copyright 2026 The siot-trust Authors.
// The live-overlay §4.3 transitivity search, kept as a test oracle.
//
// Production's trust::TransitivitySearch runs over a TrustOverlaySnapshot
// with per-task hop caches prepared up front. This is the older shape of
// the same algorithm: it reads any TrustOverlay directly and derives each
// directed edge's hop information lazily, once per edge per query. The
// relaxation loops are the pre-snapshot code unchanged, so a prepared
// production search must answer bitwise-identically to it for every
// trustor, task, method and parameter set.

#ifndef SIOT_TESTS_SUPPORT_REFERENCE_TRANSITIVITY_H_
#define SIOT_TESTS_SUPPORT_REFERENCE_TRANSITIVITY_H_

#include <cstddef>

#include "graph/graph.h"
#include "trust/task.h"
#include "trust/transitivity.h"
#include "trust/types.h"

namespace siot::trust {

/// Hop-bounded transitivity search straight over a TrustOverlay.
class ReferenceTransitivitySearch {
 public:
  /// All references must outlive the search object.
  ReferenceTransitivitySearch(const graph::Graph& graph,
                              const TaskCatalog& catalog,
                              const TrustOverlay& overlay,
                              TransitivityParams params);

  /// Finds potential trustees of `trustor` for `task` under `method`.
  TransitivityResult FindPotentialTrustees(AgentId trustor, const Task& task,
                                           TransitivityMethod method) const;

 private:
  TransitivityResult SearchTraditional(AgentId trustor,
                                       const Task& task) const;
  TransitivityResult SearchCharacteristicBased(AgentId trustor,
                                               const Task& task,
                                               bool conservative) const;

  template <typename ExactFn>
  TransitivityResult TraditionalImpl(AgentId trustor, const Task& task,
                                     ExactFn&& exact_tw) const;
  template <typename HopFn>
  TransitivityResult CharacteristicImpl(AgentId trustor, const Task& task,
                                        bool conservative,
                                        HopFn&& hop_info) const;

  const graph::Graph& graph_;
  const TaskCatalog& catalog_;
  const TrustOverlay& overlay_;
  TransitivityParams params_;
};

}  // namespace siot::trust

#endif  // SIOT_TESTS_SUPPORT_REFERENCE_TRANSITIVITY_H_
