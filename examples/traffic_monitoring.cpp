// Copyright 2026 The siot-trust Authors.
//
// The paper's §4.2 example: Alice wants real-time traffic conditions for a
// route. Bob's smartphone has never done "real-time traffic" for her — but
// it HAS provided GPS data and road images before. Existing models treat
// the new task as unrelated; the characteristic-based model infers the
// trustworthiness from the analogous tasks (Eqs. 2–4).
//
// Build: cmake --build build && ./build/examples/example_traffic_monitoring

#include <cstdio>

#include "trust/inference.h"
#include "trust/task.h"
#include "trust/trust_store.h"

using namespace siot::trust;  // example code; the library never does this

int main() {
  // Characteristics.
  constexpr CharacteristicId kGps = 0;
  constexpr CharacteristicId kImage = 1;
  constexpr CharacteristicId kVelocity = 2;

  TaskCatalog catalog;
  const TaskId gps_task = catalog.AddUniform("gps-share", {kGps}).value();
  const TaskId image_task =
      catalog.AddUniform("road-image", {kImage}).value();
  const TaskId velocity_task =
      catalog.AddUniform("speed-report", {kVelocity}).value();
  // Real-time traffic needs GPS + image + velocity, with GPS mattering
  // most (weights per Eq. 4).
  const TaskId traffic =
      catalog
          .Add("real-time-traffic",
               {{kGps, 2.0}, {kImage, 1.0}, {kVelocity, 1.0}})
          .value();

  // Alice's (agent 1) experience with Bob's smartphone (agent 2), from
  // past delegations folded through Eqs. 19–22.
  TrustStore store;
  const Normalizer normalizer(NormalizationRange::kUnit, 1.0);
  const ForgettingFactors beta = ForgettingFactors::Uniform(0.5);
  // Bob was great at GPS sharing...
  for (int i = 0; i < 8; ++i) {
    store.RecordOutcome(1, 2, gps_task, {true, 0.9, 0.0, 0.1}, beta);
  }
  // ...decent at road images...
  for (int i = 0; i < 8; ++i) {
    store.RecordOutcome(1, 2, image_task,
                        {i % 4 != 0, i % 4 != 0 ? 0.7 : 0.0,
                         i % 4 != 0 ? 0.0 : 0.3, 0.1},
                        beta);
  }
  // ...and had never reported speeds until two shaky attempts.
  store.RecordOutcome(1, 2, velocity_task, {false, 0.0, 0.4, 0.1}, beta);
  store.RecordOutcome(1, 2, velocity_task, {true, 0.6, 0.0, 0.1}, beta);

  std::printf("Alice's per-task trustworthiness of Bob's smartphone:\n");
  for (const TaskId task : {gps_task, image_task, velocity_task}) {
    std::printf("  %-16s TW = %.3f\n", catalog.Get(task).name().c_str(),
                store.Trustworthiness(1, 2, task, normalizer).value());
  }

  // The question the paper poses: can Alice make a reasonable judgment
  // about the NEW task? Eq. 4 says yes:
  const auto inferred =
      InferFromStore(catalog, store, normalizer, 1, 2,
                     catalog.Get(traffic));
  std::printf("\nInferred TW for unseen 'real-time-traffic': %.3f\n",
              inferred.value());

  // Contrast with an unknown phone (agent 3): no covering experience, so
  // the strict inference refuses rather than guessing.
  const auto unknown =
      InferFromStore(catalog, store, normalizer, 1, 3,
                     catalog.Get(traffic));
  std::printf("Same question about a stranger's phone: %s\n",
              unknown.ok() ? "(unexpectedly answered)"
                           : unknown.status().ToString().c_str());

  // Partial inference still reports what IS known — the aggressive
  // transitivity path algebra builds on this.
  TrustStore partial_store;
  partial_store.RecordOutcome(1, 3, gps_task, {true, 0.8, 0.0, 0.1}, beta);
  std::vector<TaskExperience> experiences;
  for (TaskId task : partial_store.ExperiencedTasks(1, 3)) {
    experiences.push_back(
        {task,
         partial_store.Trustworthiness(1, 3, task, normalizer).value()});
  }
  const PartialInference partial =
      PartialInfer(catalog, catalog.Get(traffic), experiences);
  std::printf(
      "\nPartial knowledge about the stranger: covered mask=0x%llx "
      "(complete: %s), TW over covered part = %.3f\n",
      static_cast<unsigned long long>(partial.covered),
      partial.complete ? "yes" : "no", partial.trustworthiness);
  return 0;
}
