// Copyright 2026 The siot-trust Authors.
//
// Quickstart: the TrustEngine facade in ~80 lines.
//
// Two smart-home devices negotiate trust: a thermostat (trustor) wants a
// window sensor (trustee) to report draft conditions. We register the task,
// run a few delegation rounds with outcomes, and watch the trustworthiness
// evolve — including the trustee's reverse evaluation locking out an
// abusive second trustor.
//
// Build: cmake --build build && ./build/examples/example_quickstart

#include <cstdio>

#include "trust/trust_engine.h"

using siot::trust::AgentId;
using siot::trust::DelegationOutcome;
using siot::trust::TaskId;
using siot::trust::TrustEngine;
using siot::trust::TrustEngineConfig;

int main() {
  // 1. Configure the engine: Eq. 18 trustworthiness normalized to [0, 1],
  //    forgetting factor β = 0.5, mutual evaluation with threshold 0.4.
  TrustEngineConfig config;
  config.beta = siot::trust::ForgettingFactors::Uniform(0.5);
  config.default_theta = 0.4;  // trustees reject suspicious trustors
  TrustEngine engine(config);

  // 2. Register the task type: draft detection needs two characteristics,
  //    temperature sensing (0) and air-pressure sensing (1).
  const TaskId draft_check =
      engine.catalog().AddUniform("draft-check", {0, 1}).value();

  // 3. Agents: thermostat (1) delegates, window sensor (2) serves,
  //    and a misbehaving vacuum robot (3) will try to abuse the sensor.
  constexpr AgentId kThermostat = 1, kWindowSensor = 2, kVacuumBot = 3;

  std::printf("Initial trustworthiness (no history): %.3f\n",
              engine.PreEvaluate(kThermostat, kWindowSensor, draft_check));

  // 4. Delegation rounds: request -> act -> report outcome. The sensor
  //    performs well, so its trustworthiness climbs.
  for (int round = 1; round <= 5; ++round) {
    const auto decision = engine.RequestDelegation(
        kThermostat, draft_check, {kWindowSensor});
    if (decision.unavailable) {
      std::printf("round %d: no trustee accepted\n", round);
      continue;
    }
    DelegationOutcome outcome;
    outcome.success = true;
    outcome.gain = 0.8;   // good reading
    outcome.cost = 0.1;   // little airtime
    engine.ReportOutcome(kThermostat, decision.trustee, draft_check,
                         outcome, /*trustor_was_abusive=*/false);
    std::printf("round %d: delegated to %u, TW now %.3f\n", round,
                decision.trustee,
                engine.PreEvaluate(kThermostat, kWindowSensor, draft_check));
  }

  // 5. Mutuality in action: the vacuum bot keeps abusing the sensor's
  //    resources, so the sensor's reverse evaluation locks it out.
  for (int round = 1; round <= 6; ++round) {
    const auto decision =
        engine.RequestDelegation(kVacuumBot, draft_check, {kWindowSensor});
    if (decision.unavailable) {
      std::printf("vacuum bot round %d: REFUSED (reverse TW %.2f < θ %.2f)\n",
                  round,
                  engine.reverse_evaluator().ReverseTrustworthiness(
                      kWindowSensor, kVacuumBot),
                  engine.reverse_evaluator().Threshold(kWindowSensor,
                                                       draft_check));
      break;
    }
    DelegationOutcome outcome;
    outcome.success = true;
    outcome.gain = 0.8;
    outcome.cost = 0.1;
    engine.ReportOutcome(kVacuumBot, decision.trustee, draft_check, outcome,
                         /*trustor_was_abusive=*/true);
    std::printf("vacuum bot round %d: served (abusively)\n", round);
  }

  // 6. Inference (Eq. 4): a brand-new task that needs only temperature
  //    sensing is scored from the draft-check experience.
  const TaskId temp_log =
      engine.catalog().AddUniform("temperature-log", {0}).value();
  std::printf("Inferred TW for the unseen 'temperature-log' task: %.3f\n",
              engine.PreEvaluate(kThermostat, kWindowSensor, temp_log));
  return 0;
}
