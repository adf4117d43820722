// Copyright 2026 The siot-trust Authors.
//
// The paper's §4.1 motivating scenario, end to end: Alice (trustor) wants
// to use Bob's camera (trustee). Alice entrusts Bob's camera to collect
// information; Bob meanwhile needs to make sure Alice will not misuse the
// installed camera — the MUTUAL evaluation that unilateral trust models
// miss.
//
// The example runs two worlds side by side: one where cameras accept every
// request (unilateral, θ = 0) and one where they reverse-evaluate the
// requesters (θ = 0.5), and prints how much camera abuse each world
// tolerates.
//
// Build: cmake --build build && ./build/examples/example_smart_home_camera

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "trust/mutual.h"

using siot::Rng;
using siot::trust::AgentId;
using siot::trust::MutualSelection;
using siot::trust::ReverseEvaluator;
using siot::trust::ScoredCandidate;
using siot::trust::SelectTrusteeMutually;
using siot::trust::TaskId;

namespace {

struct Neighbor {
  AgentId id;
  double legitimacy;  // probability the neighbor uses a camera responsibly
};

struct WorldResult {
  int served = 0;
  int refused = 0;
  int abusive_uses = 0;
};

WorldResult RunWorld(double theta, const std::vector<Neighbor>& neighbors,
                     const std::vector<AgentId>& cameras, Rng& rng) {
  const TaskId surveillance = 0;
  ReverseEvaluator evaluator;
  evaluator.SetDefaultThreshold(theta);

  // The cameras' log files: 15 past uses per neighbor seed the usage
  // pattern records the reverse evaluation reads (§4.1: "the trustee can
  // use its log files or usage pattern records").
  for (const Neighbor& neighbor : neighbors) {
    for (const AgentId camera : cameras) {
      for (int use = 0; use < 15; ++use) {
        evaluator.RecordUsage(camera, neighbor.id,
                              !rng.Bernoulli(neighbor.legitimacy));
      }
    }
  }

  WorldResult result;
  for (int day = 0; day < 30; ++day) {
    for (const Neighbor& neighbor : neighbors) {
      // The neighbor pre-evaluates the cameras (forward trust: resolution,
      // angle, uptime — abstracted as a random preference here).
      std::vector<ScoredCandidate> candidates;
      for (const AgentId camera : cameras) {
        candidates.push_back({camera, rng.NextDouble()});
      }
      const MutualSelection selection = SelectTrusteeMutually(
          evaluator, neighbor.id, surveillance, candidates);
      if (selection.trustee == siot::trust::kNoAgent) {
        ++result.refused;
        continue;
      }
      ++result.served;
      const bool abusive = !rng.Bernoulli(neighbor.legitimacy);
      if (abusive) ++result.abusive_uses;
      evaluator.RecordUsage(selection.trustee, neighbor.id, abusive);
    }
  }
  return result;
}

}  // namespace

int main() {
  Rng rng(42);
  // The neighborhood: Alice is trustworthy; Mallory wants camera access to
  // case houses; Trent is mediocre.
  const std::vector<Neighbor> neighbors = {
      {/*Alice=*/10, 0.95},
      {/*Mallory=*/11, 0.10},
      {/*Trent=*/12, 0.60},
  };
  const std::vector<AgentId> cameras = {100, 101, 102};

  std::printf("%-28s %8s %8s %12s\n", "World", "served", "refused",
              "abusive uses");
  {
    Rng world_rng = rng.Fork(1);
    const WorldResult unilateral = RunWorld(0.0, neighbors, cameras,
                                            world_rng);
    std::printf("%-28s %8d %8d %12d\n", "Unilateral (θ=0)",
                unilateral.served, unilateral.refused,
                unilateral.abusive_uses);
  }
  {
    Rng world_rng = rng.Fork(1);  // same seed: same neighbors' behavior
    const WorldResult mutual = RunWorld(0.5, neighbors, cameras, world_rng);
    std::printf("%-28s %8d %8d %12d\n", "Mutual evaluation (θ=0.5)",
                mutual.served, mutual.refused, mutual.abusive_uses);
  }
  std::printf(
      "\nWith reverse evaluation, Bob's camera recognizes Mallory's usage\n"
      "pattern and refuses her requests — the protection of the trustee\n"
      "that Trust Model Limitation 1 leaves out.\n");
  return 0;
}
