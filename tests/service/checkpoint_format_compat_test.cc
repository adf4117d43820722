// Copyright 2026 The siot-trust Authors.
// Format-compat fixture matrix: three persistence directories COMMITTED
// to the repo under tests/service/compat_fixtures/ — pure v1 (text
// checkpoint + text WAL), mixed (v1 text checkpoint + binary WAL tail),
// and pure binary (v2 checkpoint + binary WAL) — each recovered by
// today's service and byte-compared against the committed per-shard
// serialized state. Unlike the sibling wal_format_compat_test, which
// rebuilds old-format directories with the test-support v1 writers,
// these bytes were laid down once and frozen in git: if a codec change
// ever breaks decoding of deployed files, THIS suite fails even when the
// encoders drifted in lockstep with the decoders. The other direction is
// pinned too: regenerating every flavor into a scratch directory must
// reproduce the committed bytes, so the writers cannot drift either.
//
// Regeneration (only when the fixture script itself changes — never to
// paper over a decode break), from the build directory:
//   SIOT_REGENERATE_COMPAT_FIXTURES=1 ./tests/siot_service_checkpoint_format_compat_test
// then commit the rewritten fixture directories.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "service/checkpoint_codec.h"
#include "service/persistence.h"
#include "service/replication.h"
#include "service/trust_service.h"
#include "service/wal_codec.h"
#include "tests/support/v1_formats.h"
#include "trust/trust_engine.h"
#include "trust/trust_store_io.h"

namespace siot::service {
namespace {

constexpr std::size_t kShards = 2;
constexpr int kOutcomes = 24;
constexpr int kCheckpointAfter = 12;

/// The three committed flavors. `text_checkpoint`/`text_wal` describe
/// what the fixture's bytes must look like — verified on every run so a
/// careless regeneration can't silently hollow the matrix out.
struct Flavor {
  const char* name;
  bool text_checkpoint;
  bool text_wal;
};

constexpr Flavor kFlavors[] = {
    {"v1_text", true, true},
    {"v1_ckpt_binary_wal", true, false},
    {"binary", false, false},
};

std::string FixtureDir(const Flavor& flavor) {
  return std::string(SIOT_COMPAT_FIXTURE_DIR) + "/" + flavor.name;
}

std::string ExpectedPath(const std::string& dir, std::size_t shard) {
  return dir + "/expected-shard-" + std::to_string(shard) + ".txt";
}

TrustServiceConfig MakeConfig() {
  TrustServiceConfig config;
  config.shard_count = kShards;
  config.engine.beta = trust::ForgettingFactors::Uniform(0.2);
  config.engine.initial_estimates = {0.5, 0.5, 0.5, 0.5};
  return config;
}

std::string MakeTestDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "siot_ckptcompat_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

template <typename Service>
std::vector<std::string> ShardStates(const Service& service) {
  std::vector<std::string> states;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    states.push_back(
        trust::SerializeTrustEngineState(service.shard_engine(s)));
  }
  return states;
}

/// The fixture script applied to an unpersisted reference service — the
/// state every flavor must recover to.
std::vector<std::string> ReferenceStates() {
  TrustService reference(MakeConfig());
  EXPECT_EQ(reference.RegisterTask("sense", {0, 1}).value(), 0u);
  EXPECT_TRUE(
      reference.SetReverseThreshold(1001, trust::kNoTask, 0.7).ok());
  EXPECT_TRUE(reference.SetEnvironmentIndicator(2000, 0.9).ok());
  for (int i = 0; i < kOutcomes; ++i) {
    EXPECT_TRUE(reference.ReportOutcome(CompatReport(i)).ok());
  }
  return ShardStates(reference);
}

// ------------------------------------------------------ generation --

void GenerateFixture(const Flavor& flavor, const std::string& dir) {
  std::filesystem::remove_all(dir);
  const TrustServiceConfig config = MakeConfig();
  if (flavor.text_wal) {
    // Pure v1: the whole script in the pre-binary spelling.
    BuildV1Directory(config, dir, kOutcomes, kCheckpointAfter);
  } else if (flavor.text_checkpoint) {
    // Mixed: a v1 deployment checkpointed (text), then upgraded — the
    // binary-codec service appends the rest, so the WAL tail past the
    // text checkpoint is binary frames.
    BuildV1Directory(config, dir, kCheckpointAfter, kCheckpointAfter);
    PersistenceOptions options;
    options.directory = dir;
    auto service = std::move(TrustService::Open(config, options)).value();
    for (int i = kCheckpointAfter; i < kOutcomes; ++i) {
      ASSERT_TRUE(service->ReportOutcome(CompatReport(i)).ok());
    }
  } else {
    // Pure binary: today's service end to end, checkpoint mid-script so
    // recovery crosses a v2 checkpoint + binary WAL tail.
    PersistenceOptions options;
    options.directory = dir;
    auto service = std::move(TrustService::Open(config, options)).value();
    ASSERT_EQ(service->RegisterTask("sense", {0, 1}).value(), 0u);
    ASSERT_TRUE(
        service->SetReverseThreshold(1001, trust::kNoTask, 0.7).ok());
    ASSERT_TRUE(service->SetEnvironmentIndicator(2000, 0.9).ok());
    for (int i = 0; i < kOutcomes; ++i) {
      ASSERT_TRUE(service->ReportOutcome(CompatReport(i)).ok());
      if (i + 1 == kCheckpointAfter) {
        ASSERT_TRUE(service->Checkpoint().ok());
      }
    }
  }
  const std::vector<std::string> expected = ReferenceStates();
  for (std::size_t s = 0; s < expected.size(); ++s) {
    ASSERT_TRUE(WriteFileAtomic(ExpectedPath(dir, s), expected[s]).ok());
  }
  // The liveness lock is a runtime artifact, not part of the format.
  std::filesystem::remove(dir + "/LOCK");
}

TEST(CheckpointFormatCompatTest, RegenerateFixtures) {
  if (std::getenv("SIOT_REGENERATE_COMPAT_FIXTURES") == nullptr) {
    GTEST_SKIP() << "set SIOT_REGENERATE_COMPAT_FIXTURES=1 to rewrite "
                    "the committed fixture directories";
  }
  for (const Flavor& flavor : kFlavors) {
    GenerateFixture(flavor, FixtureDir(flavor));
  }
}

/// Every file of a fixture directory, by name; the liveness lock is a
/// runtime artifact, not part of the format.
std::set<std::string> FixtureFiles(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name != "LOCK") names.insert(name);
  }
  return names;
}

TEST(CheckpointFormatCompatTest, RegeneratedFixturesMatchCommittedBytes) {
  // The writers' half of the contract: rerunning the fixture script into
  // a scratch directory lays down exactly the committed bytes, so the
  // v1 writers in tests/support/ spell v1 the way the pre-binary service
  // did, and today's service still writes the committed binary bytes.
  for (const Flavor& flavor : kFlavors) {
    const std::string committed = FixtureDir(flavor);
    const std::string regenerated =
        MakeTestDir(std::string("regen_") + flavor.name);
    ASSERT_NO_FATAL_FAILURE(GenerateFixture(flavor, regenerated));
    const std::set<std::string> names = FixtureFiles(committed);
    ASSERT_EQ(FixtureFiles(regenerated), names) << flavor.name;
    for (const std::string& name : names) {
      const auto want = ReadFileToString(committed + "/" + name);
      const auto got = ReadFileToString(regenerated + "/" + name);
      ASSERT_TRUE(want.ok() && got.ok()) << flavor.name << "/" << name;
      EXPECT_EQ(got.value(), want.value()) << flavor.name << "/" << name;
    }
    std::filesystem::remove_all(regenerated);
  }
}

// ---------------------------------------------------- verification --

/// The fixture's bytes must BE the flavor they claim — otherwise a
/// regeneration under changed defaults would quietly turn the matrix
/// into three copies of the same format.
void VerifyFlavorShape(const Flavor& flavor, const std::string& dir) {
  bool any_wal_payload = false;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::string ckpt =
        ReadFileToString(ShardCheckpointPath(dir, s)).value();
    ASSERT_FALSE(ckpt.empty());
    EXPECT_EQ(CheckpointFormat(ckpt), flavor.text_checkpoint
                                          ? kCheckpointFormatText
                                          : kCheckpointFormatBinary)
        << flavor.name << " shard " << s;
    const WalContents wal = ReadWal(ShardWalPath(dir, s)).value();
    ASSERT_EQ(wal.tail, WalTailKind::kClean) << flavor.name;
    for (const WalEntry& entry : wal.entries) {
      any_wal_payload = true;
      EXPECT_EQ(WalPayloadFormat(entry.payload),
                flavor.text_wal ? kWalFormatText : kWalFormatBinary)
          << flavor.name << " shard " << s << " seq " << entry.seq;
    }
  }
  EXPECT_TRUE(any_wal_payload)
      << flavor.name << ": no WAL tail left to prove mixed recovery";
}

TEST(CheckpointFormatCompatTest, CommittedFixturesRecoverByteIdentically) {
  const TrustServiceConfig config = MakeConfig();
  for (const Flavor& flavor : kFlavors) {
    const std::string src = FixtureDir(flavor);
    ASSERT_TRUE(std::filesystem::exists(src))
        << src << " missing — run the RegenerateFixtures test with "
        << "SIOT_REGENERATE_COMPAT_FIXTURES=1 and commit the result";
    VerifyFlavorShape(flavor, src);

    // The committed reference state, shard by shard.
    std::vector<std::string> expected;
    for (std::size_t s = 0; s < kShards; ++s) {
      const auto bytes = ReadFileToString(ExpectedPath(src, s));
      ASSERT_TRUE(bytes.ok()) << ExpectedPath(src, s);
      expected.push_back(bytes.value());
    }

    // Recover a scratch COPY (recovery takes the directory lock and the
    // committed tree must stay pristine under test).
    const std::string work = MakeTestDir(flavor.name);
    std::filesystem::copy(src, work,
                          std::filesystem::copy_options::recursive);
    {
      PersistenceOptions options;
      options.directory = work;
      auto service =
          std::move(TrustService::Open(config, options)).value();
      EXPECT_EQ(ShardStates(*service), expected) << flavor.name;
    }
    // The follower read path must land on the same bytes: checkpoint
    // restore + WAL tail catch-up, whatever the formats.
    {
      ReplicaOptions replica_options;
      replica_options.directory = work;
      auto replica =
          std::move(ReplicaService::Open(config, replica_options)).value();
      ASSERT_TRUE(replica->PollAll().ok()) << flavor.name;
      EXPECT_EQ(ShardStates(*replica), expected)
          << flavor.name << " (follower)";
    }
    std::filesystem::remove_all(work);
  }
}

TEST(CheckpointFormatCompatTest, FixturesAgreeWithEachOther) {
  // All three directories spell the SAME logical state; their committed
  // references must be byte-identical across flavors (and match a fresh
  // replay of the script).
  const std::vector<std::string> reference = ReferenceStates();
  for (const Flavor& flavor : kFlavors) {
    const std::string src = FixtureDir(flavor);
    if (!std::filesystem::exists(src)) GTEST_SKIP() << src << " missing";
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(ReadFileToString(ExpectedPath(src, s)).value(),
                reference[s])
          << flavor.name << " shard " << s;
    }
  }
}

}  // namespace
}  // namespace siot::service
