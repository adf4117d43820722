// Copyright 2026 The siot-trust Authors.

#include "service/sharded_engine_set.h"

#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "trust/overlay_builder.h"

namespace siot::service {

namespace {

double Answer(const trust::TrustEngine& engine,
              const PreEvaluateRequest& request) {
  return engine.PreEvaluate(request.trustor, request.trustee, request.task);
}

trust::DelegationRequestResult Answer(
    const trust::TrustEngine& engine,
    const DelegationServiceRequest& request) {
  return engine.RequestDelegation(request.trustor, request.task,
                                  request.candidates,
                                  request.self_estimates);
}

/// Guarded read under RebuildOverlaySnapshot's MultiReaderLock, which
/// holds every shard's lock shared as a dynamic set the analysis cannot
/// track; re-asserts the one capability the access needs (the
/// assert-capability audit — see MultiReaderLock).
const trust::TrustEngine& EngineAllLocked(
    const ShardedEngineSet::Shard& shard) {
  shard.mutex.AssertReaderHeld();
  return *shard.engine;
}

}  // namespace

std::size_t ShardIndexForTrustor(trust::AgentId trustor,
                                 std::size_t shard_count) {
  std::uint64_t z = trustor;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::size_t>((z ^ (z >> 31)) % shard_count);
}

Status ValidateAgent(trust::AgentId agent, const char* role) {
  if (agent == trust::kNoAgent) {
    return Status::InvalidArgument(std::string(role) +
                                   " is the kNoAgent sentinel");
  }
  return Status::OK();
}

// ----------------------------------------------------- serving boundary --

Status ShardedEngineSet::ValidateTask(trust::TaskId task) const {
  if (task >= task_bound_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("task id " + std::to_string(task) +
                                   " is not registered");
  }
  return Status::OK();
}

void ShardedEngineSet::PublishTaskBound() {
  std::size_t common = std::numeric_limits<std::size_t>::max();
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    const ReaderLock lock(&shard.mutex);
    common = std::min(common, shard.engine->catalog().size());
  }
  const auto bound = static_cast<trust::TaskId>(common);
  trust::TaskId current = task_bound_.load(std::memory_order_relaxed);
  while (current < bound) {
    // On failure the exchange reloads `current`; a publisher that
    // sampled newer catalogs may have raised the bound past ours.
    if (task_bound_.compare_exchange_weak(current, bound,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
      break;
    }
  }
}

Status ShardedEngineSet::Validate(const PreEvaluateRequest& request) const {
  SIOT_RETURN_IF_ERROR(ValidateTask(request.task));
  SIOT_RETURN_IF_ERROR(ValidateAgent(request.trustor, "trustor"));
  return ValidateAgent(request.trustee, "trustee");
}

Status ShardedEngineSet::Validate(
    const DelegationServiceRequest& request) const {
  SIOT_RETURN_IF_ERROR(ValidateTask(request.task));
  SIOT_RETURN_IF_ERROR(ValidateAgent(request.trustor, "trustor"));
  for (const trust::AgentId candidate : request.candidates) {
    // A kNoAgent candidate would make the result's kNoAgent sentinel
    // ambiguous with a genuine selection.
    SIOT_RETURN_IF_ERROR(ValidateAgent(candidate, "candidate"));
  }
  return Status::OK();
}

// ------------------------------------------------------------- read API --

template <typename Result, typename Request>
StatusOr<Result> ShardedEngineSet::Serve(
    const Request& request, std::atomic<std::uint64_t>& counter) const {
  SIOT_RETURN_IF_ERROR(Validate(request));
  counter.fetch_add(1, std::memory_order_relaxed);
  const Shard& shard = *shards_[ShardOf(request.trustor)];
  const ReaderLock lock(&shard.mutex);
  return Answer(*shard.engine, request);
}

template <typename Result, typename Request>
StatusOr<std::vector<Result>> ShardedEngineSet::ServeBatch(
    std::span<const Request> requests,
    std::atomic<std::uint64_t>& counter) const {
  for (const Request& request : requests) {
    SIOT_RETURN_IF_ERROR(Validate(request));
  }
  counter.fetch_add(requests.size(), std::memory_order_relaxed);
  std::vector<Result> results(requests.size());
  GroupByShard(
      requests.size(), [&](std::size_t i) { return requests[i].trustor; },
      [&](std::size_t s, const std::vector<std::size_t>& indices) {
        const Shard& shard = *shards_[s];
        const ReaderLock lock(&shard.mutex);
        for (const std::size_t i : indices) {
          results[i] = Answer(*shard.engine, requests[i]);
        }
      });
  return results;
}

StatusOr<double> ShardedEngineSet::PreEvaluate(trust::AgentId trustor,
                                               trust::AgentId trustee,
                                               trust::TaskId task) const {
  return Serve<double>(PreEvaluateRequest{trustor, trustee, task},
                       pre_evaluations_);
}

StatusOr<trust::DelegationRequestResult> ShardedEngineSet::RequestDelegation(
    const DelegationServiceRequest& request) const {
  return Serve<trust::DelegationRequestResult>(request,
                                               delegation_requests_);
}

StatusOr<std::vector<double>> ShardedEngineSet::BatchPreEvaluate(
    std::span<const PreEvaluateRequest> requests) const {
  return ServeBatch<double>(requests, pre_evaluations_);
}

StatusOr<std::vector<trust::DelegationRequestResult>>
ShardedEngineSet::BatchRequestDelegation(
    std::span<const DelegationServiceRequest> requests) const {
  return ServeBatch<trust::DelegationRequestResult>(requests,
                                                    delegation_requests_);
}

TrustServiceStats ShardedEngineSet::Stats() const {
  TrustServiceStats stats;
  stats.shard_count = shards_.size();
  stats.pre_evaluations = pre_evaluations_.load(std::memory_order_relaxed);
  stats.delegation_requests =
      delegation_requests_.load(std::memory_order_relaxed);
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    const ReaderLock lock(&shard.mutex);
    stats.record_count += shard.engine->store().size();
    stats.pair_count += shard.engine->store().pair_count();
  }
  return stats;
}

// ------------------------------------------------- transitive read path --

Status ShardedEngineSet::RebuildOverlaySnapshot(SeqOfShard seq_of) {
  const std::shared_ptr<const graph::Graph> graph = overlay_.graph();
  if (graph == nullptr) {
    return Status::FailedPrecondition(
        "transitive serving not enabled (EnableTransitiveServing on a "
        "leader, ReplicaOptions::overlay_graph on a follower)");
  }
  // Held through Publish: the cut below is newer than every published
  // one, and it must reach readers before any later cut does.
  const MutexLock build_lock(&build_mutex_);
  const auto assembly_start = std::chrono::steady_clock::now();
  std::shared_ptr<const trust::VersionedOverlaySnapshot> built;
  {
    // One consistent cut: every shard's shared lock is held
    // SIMULTANEOUSLY for the whole assembly + version stamp. Per-shard
    // reads at different times could catch an admin write (replicated
    // shard by shard) half-applied, or stamp a version vector no single
    // moment of this node ever was in. Writers on this node (leader
    // appends, follower tailing) stall for the assembly; readers keep
    // serving. Deadlock-free: every other thread holds at most one shard
    // lock at a time, and we acquire in fixed index order
    // (MultiReaderLock's class comment carries the full argument).
    std::vector<SharedMutex*> mutexes;
    mutexes.reserve(shards_.size());
    for (const auto& shard : shards_) mutexes.push_back(&shard->mutex);
    const MultiReaderLock all_shards(std::move(mutexes));
    std::vector<const trust::TrustStore*> stores;
    trust::SnapshotVersion version;
    stores.reserve(shards_.size());
    version.applied_seq.reserve(shards_.size());
    for (const auto& shard : shards_) {
      stores.push_back(&EngineAllLocked(*shard).store());
      version.applied_seq.push_back(seq_of(*shard));
    }
    // Admin state replicates to shard 0 first, so its catalog is the
    // most complete; a task some other shard has not applied yet cannot
    // have records there either (registration precedes use in every
    // shard's WAL order).
    const trust::TrustEngine& shard0 = EngineAllLocked(*shards_[0]);
    const trust::ShardedStoreOverlay source(
        std::move(stores), shard0.normalizer(),
        [count = shards_.size()](trust::AgentId trustor) {
          return ShardIndexForTrustor(trustor, count);
        });
    built = std::make_shared<trust::VersionedOverlaySnapshot>(
        graph, shard0.catalog(), source, std::move(version));
  }  // Shard locks drop here; hop-cache preparation runs without them.
  const auto assembly_cost =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - assembly_start);
  return overlay_.Publish(std::move(built), assembly_cost);
}

}  // namespace siot::service
