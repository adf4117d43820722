// Copyright 2026 The siot-trust Authors.
// Persistence microbenchmarks:
//   * WAL append throughput (records/s), fsync-per-append on and off —
//     the durability knob deployments trade against;
//   * recovery time vs store size, from a pure WAL replay and from a
//     checkpoint, at 1/2/8 shards.
// Results are summarized in README.md ("Durability").

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "service/persistence.h"
#include "service/trust_service.h"
#include "service/wal_codec.h"

namespace {

using siot::service::PersistenceOptions;
using siot::service::ShardPersistence;
using siot::service::TrustService;
using siot::service::TrustServiceConfig;

std::string BenchDir(const std::string& tag) {
  // Keyed by pid: a fixed path lets two concurrent bench runs (e.g. a
  // baseline and a candidate) truncate each other's WAL mid-tail.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("siot_bench_" + std::to_string(::getpid()) + "_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TrustServiceConfig MakeConfig(std::size_t shards) {
  TrustServiceConfig config;
  config.shard_count = shards;
  config.engine.beta = siot::trust::ForgettingFactors::Uniform(0.2);
  return config;
}

/// Append throughput of one shard WAL; arg 0 = fsync per append.
void BM_WalAppend(benchmark::State& state) {
  const bool sync = state.range(0) != 0;
  const std::string dir = BenchDir("wal_append");
  PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = sync;
  ShardPersistence persist(&options, 0);
  siot::trust::TrustEngine engine(MakeConfig(1).engine);
  SIOT_CHECK(engine.catalog().AddUniform("sense", {0}).ok());
  SIOT_CHECK(persist.Recover(&engine).ok());
  const std::string op = siot::service::EncodeOutcomeOpBinary(
      1, 2, 0, {true, 0.8, 0.0, 0.1}, false, {});
  const std::vector<std::string> batch{op};
  for (auto _ : state) {
    SIOT_CHECK(persist.Log(batch).ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(sync ? "fsync-per-append" : "os-buffered");
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// Batched append (64 records per frame batch = one write + one fsync).
void BM_WalAppendBatch64(benchmark::State& state) {
  const bool sync = state.range(0) != 0;
  const std::string dir = BenchDir("wal_append_batch");
  PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = sync;
  ShardPersistence persist(&options, 0);
  siot::trust::TrustEngine engine(MakeConfig(1).engine);
  SIOT_CHECK(persist.Recover(&engine).ok());
  const std::vector<std::string> batch(
      64, siot::service::EncodeOutcomeOpBinary(
              1, 2, 0, {true, 0.8, 0.0, 0.1}, false, {}));
  for (auto _ : state) {
    SIOT_CHECK(persist.Log(batch).ok());
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.SetLabel(sync ? "fsync-per-batch" : "os-buffered");
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppendBatch64)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/// Builds a persisted service directory with `records` outcome records
/// spread over the shards; optionally compacted into checkpoints.
void BuildState(const std::string& dir, std::size_t shards,
                std::size_t records, bool checkpointed) {
  PersistenceOptions options;
  options.directory = dir;
  auto service =
      std::move(TrustService::Open(MakeConfig(shards), options)).value();
  SIOT_CHECK(service->RegisterTask("sense", {0}).ok());
  std::vector<siot::service::OutcomeReport> reports;
  for (std::size_t i = 0; i < records; ++i) {
    siot::service::OutcomeReport report;
    report.trustor = static_cast<siot::trust::AgentId>(i % 4096);
    report.trustee =
        static_cast<siot::trust::AgentId>(100000 + i / 4096);
    report.task = 0;
    report.outcome = {i % 3 != 0, 0.75, 0.125, 0.1};
    reports.push_back(report);
    if (reports.size() == 1024) {
      SIOT_CHECK(service->BatchReportOutcome(reports).ok());
      reports.clear();
    }
  }
  if (!reports.empty()) {
    SIOT_CHECK(service->BatchReportOutcome(reports).ok());
  }
  if (checkpointed) SIOT_CHECK(service->Checkpoint().ok());
}

/// Recovery wall time; args: records, shards, checkpointed.
void BM_Recovery(benchmark::State& state) {
  // Quick mode (CI bench-smoke) caps the store size: the trend line
  // needs a comparable number per PR, not the full 100k-record build.
  const auto records = siot::bench::QuickClamp(
      static_cast<std::size_t>(state.range(0)), 2000);
  const auto shards = static_cast<std::size_t>(state.range(1));
  const bool checkpointed = state.range(2) != 0;
  const std::string dir =
      BenchDir("recovery_" + std::to_string(records) + "_" +
               std::to_string(shards) + "_" +
               std::to_string(checkpointed ? 1 : 0));
  BuildState(dir, shards, records, checkpointed);
  PersistenceOptions options;
  options.directory = dir;
  std::size_t recovered_records = 0;
  for (auto _ : state) {
    auto service =
        std::move(TrustService::Open(MakeConfig(shards), options))
            .value();
    recovered_records = service->Stats().record_count;
    benchmark::DoNotOptimize(recovered_records);
  }
  SIOT_CHECK(recovered_records == records);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.SetLabel(std::string(checkpointed ? "from-checkpoint"
                                          : "wal-replay") +
                 (siot::bench::QuickMode() ? " (quick-clamped)" : ""));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_Recovery)
    ->Args({10000, 1, 0})
    ->Args({10000, 1, 1})
    ->Args({10000, 2, 0})
    ->Args({10000, 2, 1})
    ->Args({10000, 8, 0})
    ->Args({10000, 8, 1})
    ->Args({100000, 8, 0})
    ->Args({100000, 8, 1})
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------- group commit scaling --

/// A flush device with a stable, serialized commit cost. Host fsync
/// latency on CI machines is bimodal (sub-µs when the page cache absorbs
/// the write, ~100µs+ when the device is hit) and ext4 already merges
/// concurrent per-file fsyncs in the journal, so raw fsync numbers make
/// the group-commit series unreproducible. Modeling the device — every
/// durable commit costs ~10 ms (SD-card-class flash, the storage a SIoT
/// gateway actually has) and commits serialize — makes the scaling
/// series deterministic: inline mode pays one commit PER APPEND, group
/// mode pays one commit PER ROUND.
class SerializedFlushDevice {
 public:
  void Commit() {
    const siot::MutexLock guard(&mutex_);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

 private:
  siot::Mutex mutex_;
};
SerializedFlushDevice& FlushDevice() {
  static SerializedFlushDevice device;
  return device;
}

/// Durable append throughput at 1/2/8 concurrent writers, inline
/// fsync-per-append vs cross-shard group commit, on the modeled device.
/// Arg 0 = group commit on. Threads map to distinct shards so the
/// comparison measures flush coalescing, not shard-lock contention.
void BM_DurableAppendScaling(benchmark::State& state) {
  constexpr std::size_t kShards = 8;
  const bool group = state.range(0) != 0;
  static std::unique_ptr<TrustService> service;
  static std::string dir;
  if (state.thread_index() == 0) {
    dir = BenchDir("durable_scaling");
    PersistenceOptions options;
    options.directory = dir;
    options.sync_every_append = true;
    if (group) {
      options.group_commit_window = std::chrono::microseconds(200);
    }
    options.fault_hook = [](siot::service::PersistStage stage,
                            std::size_t) -> siot::Status {
      if (stage == siot::service::PersistStage::kWalBeforeSync ||
          stage == siot::service::PersistStage::kGroupCommitFlush) {
        FlushDevice().Commit();
      }
      return siot::Status::OK();
    };
    service =
        std::move(TrustService::Open(MakeConfig(kShards), options))
            .value();
    SIOT_CHECK(service->RegisterTask("sense", {0}).ok());
  }
  // Pure function of the thread index — no shared state to race on
  // before the loop barrier: the first trustor routed to shard
  // (thread_index mod kShards).
  siot::trust::AgentId trustor = 0;
  while (siot::service::ShardIndexForTrustor(trustor, kShards) !=
         static_cast<std::size_t>(state.thread_index()) % kShards) {
    ++trustor;
  }
  siot::service::OutcomeReport report;
  report.trustor = trustor;
  report.trustee = 100000 + static_cast<siot::trust::AgentId>(
                                state.thread_index());
  report.task = 0;
  report.outcome = {true, 0.75, 0.125, 0.1};
  for (auto _ : state) {
    SIOT_CHECK(service->ReportOutcome(report).ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(group ? "group-commit w=200us (modeled 10ms device)"
                       : "inline-fsync (modeled 10ms device)");
  if (state.thread_index() == 0) {
    const siot::service::TrustServiceStats stats = service->Stats();
    state.counters["fsyncs"] = static_cast<double>(stats.wal_fsyncs);
    state.counters["coalesced"] =
        static_cast<double>(stats.wal_syncs_coalesced);
    service.reset();
    std::filesystem::remove_all(dir);
  }
}
// UseRealTime: the modeled device SLEEPS, so CPU-time-based rates would
// flatter the serialized inline baseline; wall time is the honest basis
// for the scaling ratio.
BENCHMARK(BM_DurableAppendScaling)
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(2)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
