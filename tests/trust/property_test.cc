// Copyright 2026 The siot-trust Authors.
// Property-based suites over the trust algebra: parameterized sweeps that
// verify algebraic invariants of Eqs. 4, 7, 18–22 on grids and random
// inputs rather than hand-picked cases.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.h"
#include "trust/inference.h"
#include "trust/transitivity.h"
#include "trust/update.h"

namespace siot::trust {
namespace {

// ---------------------------------------------------------------- Eq. 7

class TwoSidedCombineProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, TwoSidedCombineProperty,
    ::testing::Combine(::testing::Values(0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0),
                       ::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0)));

TEST_P(TwoSidedCombineProperty, StaysInUnitInterval) {
  const auto [a, b] = GetParam();
  const double c = TwoSidedCombine(a, b);
  EXPECT_GE(c, 0.0);
  EXPECT_LE(c, 1.0);
}

TEST_P(TwoSidedCombineProperty, Commutative) {
  const auto [a, b] = GetParam();
  EXPECT_DOUBLE_EQ(TwoSidedCombine(a, b), TwoSidedCombine(b, a));
}

TEST_P(TwoSidedCombineProperty, DominatesPlainProduct) {
  // The (1−a)(1−b) term the paper adds is non-negative.
  const auto [a, b] = GetParam();
  EXPECT_GE(TwoSidedCombine(a, b), a * b - 1e-15);
}

TEST_P(TwoSidedCombineProperty, OneIsIdentity) {
  const auto [a, b] = GetParam();
  (void)b;
  EXPECT_NEAR(TwoSidedCombine(a, 1.0), a, 1e-15);
  EXPECT_NEAR(TwoSidedCombine(1.0, a), a, 1e-15);
}

TEST_P(TwoSidedCombineProperty, HalfIsAbsorbing) {
  // A coin-flip recommender destroys all information.
  const auto [a, b] = GetParam();
  (void)b;
  EXPECT_NEAR(TwoSidedCombine(0.5, a), 0.5, 1e-15);
}

TEST_P(TwoSidedCombineProperty, MonotoneAboveHalf) {
  const auto [a, b] = GetParam();
  if (a < 0.5) GTEST_SKIP();
  // For a >= 0.5 the combination is non-decreasing in b.
  EXPECT_LE(TwoSidedCombine(a, b), TwoSidedCombine(a, std::min(1.0, b + 0.1)) +
                                       1e-12);
}

TEST(TwoSidedCombineAlgebra, Associative) {
  // f(f(a,b),c) expands to the symmetric polynomial
  // a+b+c − 2(ab+ac+bc) + 4abc, so the fold order never matters.
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.NextDouble();
    const double b = rng.NextDouble();
    const double c = rng.NextDouble();
    EXPECT_NEAR(TwoSidedCombine(TwoSidedCombine(a, b), c),
                TwoSidedCombine(a, TwoSidedCombine(b, c)), 1e-12);
  }
}

TEST(TwoSidedCombineAlgebra, ChainFoldPermutationInvariant) {
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> values;
    for (int k = 0; k < 5; ++k) values.push_back(rng.NextDouble());
    const double forward = ChainTwoSidedTransitivity(values);
    std::vector<double> reversed(values.rbegin(), values.rend());
    EXPECT_NEAR(forward, ChainTwoSidedTransitivity(reversed), 1e-12);
  }
}

// ------------------------------------------------------------ Eqs. 18–23

class EstimateProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, EstimateProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST_P(EstimateProperty, UpdatesStayInValueBounds) {
  Rng rng(GetParam());
  OutcomeEstimates est{rng.NextDouble(), rng.NextDouble(), rng.NextDouble(),
                       rng.NextDouble()};
  const ForgettingFactors beta =
      ForgettingFactors::Uniform(rng.Uniform(0.0, 1.0));
  for (int i = 0; i < 200; ++i) {
    DelegationOutcome outcome;
    outcome.success = rng.Bernoulli(0.5);
    outcome.gain = outcome.success ? rng.NextDouble() : 0.0;
    outcome.damage = outcome.success ? 0.0 : rng.NextDouble();
    outcome.cost = rng.NextDouble();
    est = UpdateEstimates(est, outcome, beta);
    // Convex combinations of in-range samples stay in range.
    EXPECT_GE(est.success_rate, 0.0);
    EXPECT_LE(est.success_rate, 1.0);
    EXPECT_GE(est.gain, 0.0);
    EXPECT_LE(est.gain, 1.0);
    EXPECT_GE(est.damage, 0.0);
    EXPECT_LE(est.damage, 1.0);
    EXPECT_GE(est.cost, 0.0);
    EXPECT_LE(est.cost, 1.0);
  }
}

TEST_P(EstimateProperty, TrustworthinessWithinNormalizerRange) {
  Rng rng(GetParam() + 100);
  const Normalizer unit(NormalizationRange::kUnit, 1.0);
  const Normalizer sgn(NormalizationRange::kSigned, 1.0);
  for (int i = 0; i < 200; ++i) {
    OutcomeEstimates est{rng.NextDouble(), rng.NextDouble(),
                         rng.NextDouble(), rng.NextDouble()};
    const double u = TrustworthinessFromEstimates(est, unit);
    const double s = TrustworthinessFromEstimates(est, sgn);
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
    // The two normalizations are affinely related.
    EXPECT_NEAR(s, 2.0 * u - 1.0, 1e-12);
  }
}

TEST_P(EstimateProperty, ProfitMonotoneInEachAspect) {
  Rng rng(GetParam() + 200);
  for (int i = 0; i < 100; ++i) {
    OutcomeEstimates base{rng.NextDouble(), rng.NextDouble(),
                          rng.NextDouble(), rng.NextDouble()};
    OutcomeEstimates better = base;
    better.gain = std::min(1.0, base.gain + 0.1);
    EXPECT_GE(ExpectedNetProfit(better), ExpectedNetProfit(base));
    better = base;
    better.damage = std::min(1.0, base.damage + 0.1);
    EXPECT_LE(ExpectedNetProfit(better), ExpectedNetProfit(base));
    better = base;
    better.cost = std::min(1.0, base.cost + 0.1);
    EXPECT_LE(ExpectedNetProfit(better), ExpectedNetProfit(base));
  }
}

TEST_P(EstimateProperty, SelectionPicksArgmax) {
  Rng rng(GetParam() + 300);
  std::vector<OutcomeEstimates> candidates;
  for (int i = 0; i < 12; ++i) {
    candidates.push_back({rng.NextDouble(), rng.NextDouble(),
                          rng.NextDouble(), rng.NextDouble()});
  }
  const auto best =
      SelectBestCandidate(candidates, SelectionStrategy::kMaxNetProfit);
  ASSERT_TRUE(best.ok());
  for (const auto& candidate : candidates) {
    EXPECT_GE(ExpectedNetProfit(candidates[best.value()]) + 1e-12,
              ExpectedNetProfit(candidate));
  }
  const auto best_s =
      SelectBestCandidate(candidates, SelectionStrategy::kMaxSuccessRate);
  ASSERT_TRUE(best_s.ok());
  for (const auto& candidate : candidates) {
    EXPECT_GE(candidates[best_s.value()].success_rate + 1e-12,
              candidate.success_rate);
  }
}

// ---------------------------------------------------------------- Eq. 4

class InferenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, InferenceProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST_P(InferenceProperty, PermutationInvariantAndConvex) {
  Rng rng(GetParam());
  TaskCatalog catalog;
  // Random catalog over 6 characteristics.
  std::vector<TaskId> tasks;
  for (int t = 0; t < 6; ++t) {
    std::vector<CharacteristicId> chars;
    const auto picks =
        rng.SampleWithoutReplacement(6, 1 + rng.NextBounded(2));
    for (std::size_t p : picks) {
      chars.push_back(static_cast<CharacteristicId>(p));
    }
    // Two-step append instead of `"t" + std::to_string(t)`: the rvalue
    // operator+ trips a GCC 12 -Wrestrict false positive (PR 105651).
    std::string name = "t";
    name += std::to_string(t);
    auto added = catalog.AddUniform(name, chars);
    ASSERT_TRUE(added.ok());
    tasks.push_back(added.value());
  }
  // Random experiences over those tasks.
  std::vector<TaskExperience> experiences;
  double lo = 1.0, hi = 0.0;
  for (TaskId t : tasks) {
    const double tw = rng.NextDouble();
    experiences.push_back({t, tw});
    lo = std::min(lo, tw);
    hi = std::max(hi, tw);
  }
  // Target: a task over two covered characteristics.
  const Task& first = catalog.Get(tasks[0]);
  const CharacteristicId target_char = first.parts()[0].id;
  auto target = Task::CreateUniform(99, "target", {target_char});
  ASSERT_TRUE(target.ok());

  const auto forward =
      InferTrustworthiness(catalog, *target, experiences);
  ASSERT_TRUE(forward.ok());
  // Convexity: bounded by the extremes of the experienced values.
  EXPECT_GE(forward.value(), lo - 1e-12);
  EXPECT_LE(forward.value(), hi + 1e-12);
  // Permutation invariance.
  std::vector<TaskExperience> shuffled(experiences.rbegin(),
                                       experiences.rend());
  const auto backward =
      InferTrustworthiness(catalog, *target, shuffled);
  ASSERT_TRUE(backward.ok());
  EXPECT_NEAR(forward.value(), backward.value(), 1e-12);
}

TEST_P(InferenceProperty, PartialNeverExceedsCoverage) {
  Rng rng(GetParam() + 50);
  TaskCatalog catalog;
  const TaskId a = catalog.AddUniform("a", {0}).value();
  auto target = Task::CreateUniform(99, "target", {0, 1, 2});
  ASSERT_TRUE(target.ok());
  const double tw = rng.NextDouble();
  const PartialInference partial = PartialInfer(
      catalog, *target, std::vector<TaskExperience>{{a, tw}});
  EXPECT_EQ(partial.covered, 1ull);  // only characteristic 0
  EXPECT_FALSE(partial.complete);
  EXPECT_NEAR(partial.trustworthiness, tw, 1e-12);
  EXPECT_NEAR(partial.per_characteristic[0], tw, 1e-12);
}

}  // namespace
}  // namespace siot::trust
