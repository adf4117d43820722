// Copyright 2026 The siot-trust Authors.

#include "trust/inference.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace siot::trust {

namespace {

// Outer sums of Eq. 4 over the characteristics experience covers.
struct Eq4Sums {
  CharacteristicMask covered = 0;
  double covered_weight = 0.0;
  double combined = 0.0;

  // Weighted combination renormalized to the covered subset; 0 if nothing
  // is covered.
  double Trustworthiness() const {
    return covered_weight > 0.0 ? combined / covered_weight : 0.0;
  }
};

// The one Eq. 4 implementation. `trustworthiness_of(experience)` is an
// experienced task's TW. When `per_characteristic` is given, entry i
// receives the inner-sum estimate of every covered part i of `target`.
template <typename Experiences, typename TrustworthinessOf>
Eq4Sums Eq4(const TaskCatalog& catalog, const Task& target,
            const Experiences& experiences,
            TrustworthinessOf trustworthiness_of,
            double* per_characteristic = nullptr) {
  Eq4Sums sums;
  for (std::size_t i = 0; i < target.parts().size(); ++i) {
    const auto& part = target.parts()[i];
    // Inner sum of Eq. 4: weighted average of TW over experienced tasks
    // containing this characteristic, weighted by the characteristic's
    // weight inside each experienced task.
    double weight_sum = 0.0;
    double weighted_tw = 0.0;
    for (const auto& exp : experiences) {
      const double w = catalog.Get(exp.task).WeightOf(part.id);
      if (w <= 0.0) continue;
      weight_sum += w;
      weighted_tw += w * trustworthiness_of(exp);
    }
    if (weight_sum > 0.0) {
      const double estimate = weighted_tw / weight_sum;
      if (per_characteristic != nullptr) per_characteristic[i] = estimate;
      sums.covered |= 1ull << part.id;
      sums.covered_weight += part.weight;
      sums.combined += part.weight * estimate;
    }
  }
  return sums;
}

double ExperienceTrustworthiness(const TaskExperience& exp) {
  return exp.trustworthiness;
}

Eq4Sums RecordSums(const TaskCatalog& catalog, const Normalizer& normalizer,
                   std::span<const PairTaskRecord> records,
                   const Task& target) {
  return Eq4(catalog, target, records,
             [&normalizer](const PairTaskRecord& entry) {
               return TrustworthinessFromEstimates(entry.record.estimates,
                                                   normalizer);
             });
}

StatusOr<double> CompleteOrError(const Task& target, const Eq4Sums& sums) {
  if (!target.CoveredBy(sums.covered)) {
    return Status::FailedPrecondition(StrFormat(
        "task '%s': characteristics 0x%llx not covered by experience",
        target.name().c_str(),
        static_cast<unsigned long long>(target.mask() & ~sums.covered)));
  }
  return sums.Trustworthiness();
}

}  // namespace

PartialInference PartialInfer(const TaskCatalog& catalog, const Task& target,
                              std::span<const TaskExperience> experiences) {
  PartialInference out;
  out.per_characteristic.assign(target.parts().size(), 0.0);
  const Eq4Sums sums = Eq4(catalog, target, experiences,
                           ExperienceTrustworthiness,
                           out.per_characteristic.data());
  out.covered = sums.covered;
  out.complete = target.CoveredBy(sums.covered);
  out.trustworthiness = sums.Trustworthiness();
  return out;
}

CharacteristicMask InferPerCharacteristic(
    const TaskCatalog& catalog, const Task& target,
    std::span<const TaskExperience> experiences,
    std::span<double> per_characteristic) {
  SIOT_CHECK(per_characteristic.size() == target.parts().size());
  return Eq4(catalog, target, experiences, ExperienceTrustworthiness,
             per_characteristic.data())
      .covered;
}

StatusOr<double> InferTrustworthiness(
    const TaskCatalog& catalog, const Task& target,
    std::span<const TaskExperience> experiences) {
  return CompleteOrError(
      target,
      Eq4(catalog, target, experiences, ExperienceTrustworthiness));
}

std::optional<double> InferFromRecords(
    const TaskCatalog& catalog, const Normalizer& normalizer,
    std::span<const PairTaskRecord> records, const Task& target) {
  const Eq4Sums sums = RecordSums(catalog, normalizer, records, target);
  if (!target.CoveredBy(sums.covered)) return std::nullopt;
  return sums.Trustworthiness();
}

StatusOr<double> InferFromStore(const TaskCatalog& catalog,
                                const TrustStore& store,
                                const Normalizer& normalizer, AgentId trustor,
                                AgentId trustee, const Task& target) {
  return CompleteOrError(
      target, RecordSums(catalog, normalizer,
                         store.PairRecords(trustor, trustee), target));
}

}  // namespace siot::trust
