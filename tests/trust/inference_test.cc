// Copyright 2026 The siot-trust Authors.

#include "trust/inference.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace siot::trust {
namespace {

using Experiences = std::vector<TaskExperience>;

class InferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gps_ = catalog_.AddUniform("gps", {0}).value();
    image_ = catalog_.AddUniform("image", {1}).value();
    velocity_ = catalog_.AddUniform("velocity", {2}).value();
    nav_ = catalog_.AddUniform("nav", {0, 2}).value();          // gps+vel
    traffic_ = catalog_.AddUniform("traffic", {0, 1}).value();  // gps+img
  }

  TaskCatalog catalog_;
  TaskId gps_, image_, velocity_, nav_, traffic_;
};

TEST_F(InferenceTest, SingleCharacteristicFromSingleTask) {
  // Eq. 2: new task's only characteristic seen in one experienced task.
  const auto tw = InferTrustworthiness(catalog_, catalog_.Get(gps_),
                                       Experiences{{nav_, 0.8}});
  ASSERT_TRUE(tw.ok());
  EXPECT_DOUBLE_EQ(tw.value(), 0.8);
}

TEST_F(InferenceTest, PaperTrafficExample) {
  // §4.2: traffic = gps + image, inferred from gps-task and image-task.
  const auto tw = InferTrustworthiness(
      catalog_, catalog_.Get(traffic_),
      Experiences{{gps_, 0.9}, {image_, 0.5}});
  ASSERT_TRUE(tw.ok());
  // Equal weights in the target -> simple average.
  EXPECT_DOUBLE_EQ(tw.value(), 0.7);
}

TEST_F(InferenceTest, UncoveredCharacteristicFails) {
  // Eq. 2's ∀i condition: all characteristics must be covered.
  const auto tw = InferTrustworthiness(catalog_, catalog_.Get(traffic_),
                                       Experiences{{gps_, 0.9}});
  EXPECT_TRUE(tw.status().IsFailedPrecondition());
}

TEST_F(InferenceTest, NoExperienceFails) {
  EXPECT_FALSE(
      InferTrustworthiness(catalog_, catalog_.Get(gps_), {}).ok());
}

TEST_F(InferenceTest, Eq4InnerWeightedAverage) {
  // Characteristic 0 appears in nav (weight 0.5) and gps (weight 1.0):
  // estimate = (0.5*tw_nav + 1.0*tw_gps) / 1.5.
  const auto tw = InferTrustworthiness(catalog_, catalog_.Get(gps_),
                                       Experiences{{nav_, 0.6}, {gps_, 0.9}});
  ASSERT_TRUE(tw.ok());
  EXPECT_NEAR(tw.value(), (0.5 * 0.6 + 1.0 * 0.9) / 1.5, 1e-12);
}

TEST_F(InferenceTest, TargetWeightsCombineCharacteristics) {
  // Weighted target: gps twice as important as image.
  auto weighted =
      Task::Create(99, "weighted", {{0, 2.0}, {1, 1.0}}).value();
  const auto tw = InferTrustworthiness(catalog_, weighted,
                                       Experiences{{gps_, 0.9}, {image_, 0.3}});
  ASSERT_TRUE(tw.ok());
  EXPECT_NEAR(tw.value(), (2.0 / 3.0) * 0.9 + (1.0 / 3.0) * 0.3, 1e-12);
}

TEST_F(InferenceTest, PartialInferReportsCoverage) {
  const PartialInference partial = PartialInfer(
      catalog_, catalog_.Get(traffic_), Experiences{{gps_, 0.8}});
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.covered, 1ull << 0);
  ASSERT_EQ(partial.per_characteristic.size(), 2u);
  EXPECT_DOUBLE_EQ(partial.per_characteristic[0], 0.8);
  EXPECT_DOUBLE_EQ(partial.per_characteristic[1], 0.0);
  // Renormalized over covered weight only.
  EXPECT_DOUBLE_EQ(partial.trustworthiness, 0.8);
}

TEST_F(InferenceTest, PartialInferEmptyExperience) {
  const PartialInference partial =
      PartialInfer(catalog_, catalog_.Get(traffic_), {});
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.covered, 0u);
  EXPECT_DOUBLE_EQ(partial.trustworthiness, 0.0);
}

TEST_F(InferenceTest, PartialInferCompleteMatchesStrict) {
  const std::vector<TaskExperience> exp = {{gps_, 0.9}, {image_, 0.5}};
  const PartialInference partial =
      PartialInfer(catalog_, catalog_.Get(traffic_), exp);
  const auto strict =
      InferTrustworthiness(catalog_, catalog_.Get(traffic_), exp);
  EXPECT_TRUE(partial.complete);
  EXPECT_DOUBLE_EQ(partial.trustworthiness, strict.value());
}

TEST_F(InferenceTest, InferFromStoreGathersExperience) {
  TrustStore store;
  const Normalizer n(NormalizationRange::kUnit, 1.0);
  // trustor 1 -> trustee 2: perfect gps record, useless image record.
  store.Put(1, 2, gps_, {1.0, 1.0, 0.0, 0.0});    // tw 1.0
  store.Put(1, 2, image_, {0.0, 0.0, 1.0, 1.0});  // tw 0.0
  const auto tw =
      InferFromStore(catalog_, store, n, 1, 2, catalog_.Get(traffic_));
  ASSERT_TRUE(tw.ok());
  EXPECT_DOUBLE_EQ(tw.value(), 0.5);
}

TEST_F(InferenceTest, InferFromStoreFailsWithoutCoverage) {
  TrustStore store;
  const Normalizer n(NormalizationRange::kUnit, 1.0);
  store.Put(1, 2, gps_, {1.0, 1.0, 0.0, 0.0});
  EXPECT_FALSE(
      InferFromStore(catalog_, store, n, 1, 2, catalog_.Get(traffic_))
          .ok());
}

// Property: inference output is bounded by the min/max of the experienced
// trustworthiness values (it is a convex combination).
TEST_F(InferenceTest, ConvexCombinationProperty) {
  for (double lo : {0.0, 0.2, 0.5}) {
    for (double hi : {0.6, 0.8, 1.0}) {
      const auto tw = InferTrustworthiness(
          catalog_, catalog_.Get(traffic_),
          Experiences{{gps_, lo}, {image_, hi}});
      ASSERT_TRUE(tw.ok());
      EXPECT_GE(tw.value(), lo - 1e-12);
      EXPECT_LE(tw.value(), hi + 1e-12);
    }
  }
}

// §5.4 scenario: a trustee that behaved maliciously on a characteristic in
// a previous task scores lower on any new task containing it.
TEST_F(InferenceTest, MaliciousHistoryPropagatesToAnalogousTasks) {
  const auto honest = InferTrustworthiness(
      catalog_, catalog_.Get(traffic_),
      Experiences{{gps_, 0.9}, {image_, 0.9}});
  const auto dishonest = InferTrustworthiness(
      catalog_, catalog_.Get(traffic_),
      Experiences{{gps_, 0.9}, {image_, 0.1}});
  ASSERT_TRUE(honest.ok());
  ASSERT_TRUE(dishonest.ok());
  EXPECT_GT(honest.value(), dishonest.value());
}

// InferFromStore is a wrapper over the status-free InferFromRecords probe:
// ok() exactly when the probe has a value, the same bits when it does, and
// a FailedPrecondition on a miss. Both match Eq. 4 over the experiences
// gathered from the same records (InferFromStore's former body).
TEST_F(InferenceTest, InferFromStoreWrapsInferFromRecords) {
  Rng rng(14);
  const auto step = [&rng] {
    return static_cast<double>(rng.NextBounded(5)) / 4.0;
  };
  std::size_t hits = 0, misses = 0;
  for (const NormalizationRange range :
       {NormalizationRange::kUnit, NormalizationRange::kSigned}) {
    const Normalizer n(range, 2.0);
    TrustStore store;
    for (AgentId trustee = 0; trustee < 64; ++trustee) {
      const std::uint64_t records = rng.NextBounded(4);  // 0: absent pair
      for (std::uint64_t r = 0; r < records; ++r) {
        const auto task = static_cast<TaskId>(rng.NextBounded(catalog_.size()));
        store.Put(0, trustee, task,
                  {step(), 2 * step(), 2 * step(), 2 * step()});
      }
    }
    for (AgentId trustee = 0; trustee < 64; ++trustee) {
      const auto records = store.PairRecords(0, trustee);
      std::vector<TaskExperience> experiences;
      for (const PairTaskRecord& entry : records) {
        experiences.push_back(
            {entry.task,
             TrustworthinessFromEstimates(entry.record.estimates, n)});
      }
      for (TaskId t = 0; t < catalog_.size(); ++t) {
        const Task& target = catalog_.Get(t);
        const std::optional<double> probe =
            InferFromRecords(catalog_, n, records, target);
        const StatusOr<double> wrapped =
            InferFromStore(catalog_, store, n, 0, trustee, target);
        const StatusOr<double> gathered =
            InferTrustworthiness(catalog_, target, experiences);
        ASSERT_EQ(wrapped.ok(), probe.has_value());
        ASSERT_EQ(gathered.ok(), probe.has_value());
        if (probe.has_value()) {
          ++hits;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(wrapped.value()),
                    std::bit_cast<std::uint64_t>(*probe));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(gathered.value()),
                    std::bit_cast<std::uint64_t>(*probe));
        } else {
          ++misses;
          EXPECT_EQ(wrapped.status().code(), StatusCode::kFailedPrecondition);
        }
      }
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

}  // namespace
}  // namespace siot::trust
