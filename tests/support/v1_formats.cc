// Copyright 2026 The siot-trust Authors.

#include "tests/support/v1_formats.h"

#include <filesystem>
#include <memory>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/file_util.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "service/sharded_engine_set.h"
#include "trust/trust_store_io.h"

namespace siot::service {

// ------------------------------------------------------- v1 encoders --

std::string EncodeOutcomeOp(
    trust::AgentId trustor, trust::AgentId trustee, trust::TaskId task,
    const trust::DelegationOutcome& outcome, bool trustor_was_abusive,
    const std::vector<trust::AgentId>& intermediates) {
  std::string op = StrFormat(
      "outcome %u %u %u %d %.17g %.17g %.17g %d %zu", trustor, trustee,
      task, outcome.success ? 1 : 0, outcome.gain, outcome.damage,
      outcome.cost, trustor_was_abusive ? 1 : 0, intermediates.size());
  for (const trust::AgentId agent : intermediates) {
    op += StrFormat(" %u", agent);
  }
  return op;
}

std::string EncodeTaskOp(
    const std::string& name,
    const std::vector<trust::CharacteristicId>& characteristics) {
  std::string op =
      StrFormat("task %s %zu", trust::EscapeNameToken(name).c_str(),
                characteristics.size());
  for (const trust::CharacteristicId c : characteristics) {
    op += StrFormat(" %u", c);
  }
  return op;
}

std::string EncodeThetaOp(trust::AgentId trustee, trust::TaskId task,
                          double theta) {
  if (task == trust::kNoTask) {
    return StrFormat("theta %u * %.17g", trustee, theta);
  }
  return StrFormat("theta %u %u %.17g", trustee, task, theta);
}

std::string EncodeEnvOp(trust::AgentId agent, double indicator) {
  return StrFormat("env %u %.17g", agent, indicator);
}

std::string EncodeCheckpointText(std::uint64_t applied_seq,
                                 const trust::TrustEngine& engine) {
  const std::string body =
      StrFormat("applied_seq %llu\n",
                static_cast<unsigned long long>(applied_seq)) +
      trust::SerializeTrustEngineState(engine);
  return StrFormat("siot-checkpoint 1 %zu %u\n", body.size(),
                   Crc32cMask(Crc32c(body))) +
         body;
}

// ------------------------------------------- pre-binary directories --

Status CheckpointV1(ShardPersistence* persist,
                    const trust::TrustEngine& engine) {
  SIOT_RETURN_IF_ERROR(persist->Checkpoint(engine));
  return WriteFileAtomic(persist->checkpoint_path(),
                         EncodeCheckpointText(persist->last_seq(), engine));
}

OutcomeReport CompatReport(int i) {
  OutcomeReport report;
  report.trustor = static_cast<trust::AgentId>(17 * i % 101);
  report.trustee = 1000 + static_cast<trust::AgentId>(i % 7);
  report.task = 0;
  report.outcome.success = i % 3 != 0;
  report.outcome.gain = 0.5 + 0.03125 * static_cast<double>(i % 11);
  report.outcome.damage = report.outcome.success ? 0.0 : 0.1 * i;
  report.outcome.cost = 0.125;
  report.trustor_was_abusive = i % 5 == 0;
  if (i % 4 == 0) {
    report.intermediates = {2000 + static_cast<trust::AgentId>(i % 3)};
  }
  return report;
}

void BuildV1Directory(const TrustServiceConfig& config,
                      const std::string& dir, int outcomes,
                      int checkpoint_after) {
  PersistenceOptions options;
  options.directory = dir;
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  ASSERT_TRUE(WriteFileAtomic(ManifestPath(dir),
                              BuildServiceManifest(config.shard_count,
                                                   config))
                  .ok());
  std::vector<std::unique_ptr<trust::TrustEngine>> engines;
  std::vector<std::unique_ptr<ShardPersistence>> shards;
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    engines.push_back(std::make_unique<trust::TrustEngine>(config.engine));
    shards.push_back(std::make_unique<ShardPersistence>(&options, s));
    ASSERT_TRUE(shards[s]->Recover(engines[s].get()).ok());
  }
  const auto admin = [&](const std::string& payload) {
    for (std::size_t s = 0; s < shards.size(); ++s) {
      ASSERT_TRUE(shards[s]->Log({payload}).ok());
      ASSERT_TRUE(ApplyWalOp(payload, engines[s].get()).ok());
    }
  };
  admin(EncodeTaskOp("sense", {0, 1}));
  admin(EncodeThetaOp(1001, trust::kNoTask, 0.7));
  admin(EncodeEnvOp(2000, 0.9));
  for (int i = 0; i < outcomes; ++i) {
    const OutcomeReport report = CompatReport(i);
    const std::size_t s =
        ShardIndexForTrustor(report.trustor, config.shard_count);
    const std::string payload =
        EncodeOutcomeOp(report.trustor, report.trustee, report.task,
                        report.outcome, report.trustor_was_abusive,
                        report.intermediates);
    ASSERT_TRUE(shards[s]->Log({payload}).ok());
    ASSERT_TRUE(ApplyWalOp(payload, engines[s].get()).ok());
    if (checkpoint_after > 0 && i + 1 == checkpoint_after) {
      for (std::size_t c = 0; c < shards.size(); ++c) {
        ASSERT_TRUE(CheckpointV1(shards[c].get(), *engines[c]).ok());
      }
    }
  }
}

}  // namespace siot::service
