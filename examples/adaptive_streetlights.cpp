// Copyright 2026 The siot-trust Authors.
//
// Dynamic environment (§4.5): a city's adaptive streetlight controller
// delegates brightness sensing to pole-mounted cameras. During a storm the
// cameras' readings degrade through no fault of theirs. An environment-
// blind trust model punishes the honest cameras and — once the storm
// passes — prefers an opportunistic device that only shows up in good
// weather. The r(·) update (Eq. 29) removes the weather from the
// evaluation and keeps the honest cameras trusted.
//
// Build: cmake --build build && ./build/examples/example_adaptive_streetlights

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "trust/environment.h"
#include "trust/update.h"

using namespace siot::trust;

namespace {

struct Camera {
  const char* name;
  double intrinsic;   // true competence in clear weather
  bool fair_weather;  // serves only when the sky is clear
};

}  // namespace

int main() {
  const std::vector<Camera> cameras = {
      {"north-cam (honest)", 0.90, false},
      {"south-cam (honest)", 0.85, false},
      // Mediocre, but better than an honest camera in a storm (0.9 × 0.3):
      // exactly the §5.7 trap.
      {"pop-up-drone (opportunist)", 0.45, true},
  };
  // Weather schedule: clear (E=1.0) -> storm (E=0.3) -> clear again.
  std::vector<double> weather;
  for (int day = 0; day < 20; ++day) weather.push_back(1.0);
  for (int day = 0; day < 20; ++day) weather.push_back(0.3);
  for (int day = 0; day < 20; ++day) weather.push_back(1.0);

  const ForgettingFactors beta = ForgettingFactors::Uniform(0.85);

  for (const bool environment_aware : {false, true}) {
    // First-contact estimates. The opportunist self-promotes (a classic
    // SIoT attack): it advertises glowing expected outcomes.
    std::vector<OutcomeEstimates> estimates;
    for (const Camera& camera : cameras) {
      estimates.push_back(camera.fair_weather
                              ? OutcomeEstimates{0.95, 0.95, 0.0, 0.0}
                              : OutcomeEstimates{0.6, 0.6, 0.1, 0.05});
    }
    int honest_selections_after_storm = 0;
    int selections_after_storm = 0;

    for (std::size_t day = 0; day < weather.size(); ++day) {
      const double e = weather[day];
      // Pick the camera with the best expected profit under today's sky.
      std::size_t best = 0;
      double best_score = -1e9;
      for (std::size_t i = 0; i < cameras.size(); ++i) {
        if (cameras[i].fair_weather && e < 0.9) continue;  // absent
        OutcomeEstimates scored = estimates[i];
        if (environment_aware) {
          scored.success_rate *= e;  // prediction for today
          scored.gain *= e;
        }
        const double score = ExpectedNetProfit(scored);
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
      if (day >= 40) {
        ++selections_after_storm;
        if (!cameras[best].fair_weather) ++honest_selections_after_storm;
      }
      // The camera serves a graded reading: observed quality is the
      // camera's intrinsic competence attenuated by the weather (the §4.5
      // environment effect).
      DelegationOutcome outcome;
      outcome.success = true;             // a reading always comes back
      outcome.gain = cameras[best].intrinsic * e;  // weather-bound value
      outcome.damage = 0.0;
      outcome.cost = 0.05;
      estimates[best] =
          environment_aware
              ? UpdateEstimatesWithEnvironment(estimates[best], outcome,
                                               beta, e)
              : UpdateEstimates(estimates[best], outcome, beta);
    }

    std::printf("%s model:\n",
                environment_aware ? "Environment-aware (Eq. 29)"
                                  : "Environment-blind");
    for (std::size_t i = 0; i < cameras.size(); ++i) {
      std::printf("  %-28s final Ŝ = %.3f  Ĝ = %.3f\n", cameras[i].name,
                  estimates[i].success_rate, estimates[i].gain);
    }
    std::printf("  honest cameras chosen after the storm: %d / %d\n\n",
                honest_selections_after_storm, selections_after_storm);
  }

  std::printf(
      "The blind model lets the storm destroy the honest cameras'\n"
      "records, so the fair-weather drone wins afterwards; the r(·)\n"
      "update divides the observations by the weather indicator\n"
      "(Cannikin law, Eq. 29) and the honest cameras stay on top.\n");
  return 0;
}
