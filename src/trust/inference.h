// Copyright 2026 The siot-trust Authors.
// Inferential transfer of trust with analogous tasks (paper §4.2,
// Eqs. 2–4). The trustworthiness of an unseen task τ' is inferred from
// experienced tasks {τ_k} that share characteristics:
//
//   TW(τ') = Σ_i w_i(τ') · [ Σ_k w_j(τ_k)·TW(τ_k) / Σ_k w_j(τ_k) ]
//
// where the inner sum runs over experienced tasks containing the same
// characteristic a_i(τ') (Eq. 4). Inference requires every characteristic
// of τ' to be covered by experience (the ∀i condition above Eq. 2);
// PartialInfer relaxes this for the aggressive-transitivity path algebra
// (§4.3), reporting which characteristics were covered.

#ifndef SIOT_TRUST_INFERENCE_H_
#define SIOT_TRUST_INFERENCE_H_

#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "trust/task.h"
#include "trust/trust_store.h"
#include "trust/types.h"

namespace siot::trust {

/// One experienced task with its trustworthiness value.
struct TaskExperience {
  TaskId task = kNoTask;
  double trustworthiness = 0.0;
};

/// Result of a partial inference.
struct PartialInference {
  /// Characteristics of the target task that were covered by experience.
  CharacteristicMask covered = 0;
  /// Per-covered-characteristic inferred trustworthiness, aligned with the
  /// target task's parts() order (entries for uncovered parts are 0).
  std::vector<double> per_characteristic;
  /// Weighted combination over the covered characteristics only, with the
  /// weights renormalized to the covered subset. 0 if nothing is covered.
  double trustworthiness = 0.0;
  /// True if every characteristic of the target was covered.
  bool complete = false;
};

/// Eq. 4 over explicit experiences. Errors (FailedPrecondition) if some
/// characteristic of `target` is not covered by any experienced task.
StatusOr<double> InferTrustworthiness(
    const TaskCatalog& catalog, const Task& target,
    std::span<const TaskExperience> experiences);

/// Like InferTrustworthiness but never fails: covers what it can and
/// reports coverage, as aggressive transitivity (Eqs. 12–17) reads a hop.
PartialInference PartialInfer(const TaskCatalog& catalog, const Task& target,
                              std::span<const TaskExperience> experiences);

/// PartialInfer's per-characteristic estimates written in place, for
/// callers that fill a preallocated table: entry i of `per_characteristic`
/// (aligned with target.parts()) receives the Eq. 4 inner average of every
/// covered part i and is left untouched otherwise. Returns the covered
/// mask. Allocates nothing; the values are bitwise PartialInfer's.
CharacteristicMask InferPerCharacteristic(
    const TaskCatalog& catalog, const Task& target,
    std::span<const TaskExperience> experiences,
    std::span<double> per_characteristic);

/// Status-free Eq. 4 over one (trustor, trustee) pair's records (a
/// TrustStore::PairRecords span), each experienced task weighing in with
/// its Eq. 18 trustworthiness under `normalizer`. nullopt when some
/// characteristic of `target` is not covered; the value is bitwise the
/// one InferFromStore returns. This is the probe the delegation path runs
/// per candidate, so a miss costs no Status and no allocation.
std::optional<double> InferFromRecords(
    const TaskCatalog& catalog, const Normalizer& normalizer,
    std::span<const PairTaskRecord> records, const Task& target);

/// InferFromRecords over the store's trustor→trustee records, with a
/// FailedPrecondition naming the uncovered characteristics on a miss.
StatusOr<double> InferFromStore(const TaskCatalog& catalog,
                                const TrustStore& store,
                                const Normalizer& normalizer, AgentId trustor,
                                AgentId trustee, const Task& target);

}  // namespace siot::trust

#endif  // SIOT_TRUST_INFERENCE_H_
