// Copyright 2026 The siot-trust Authors.
// Deterministic parallel execution for the §5 experiment drivers.
//
// A ParallelRunner owns a fixed pool of worker threads and distributes the
// items of a ForEach dynamically across them. Determinism is achieved by
// construction, not by scheduling: every experiment derives one RNG stream
// per work item from the master seed (DeriveStream), and every item writes
// only to its own pre-allocated result slot. Aggregation then walks the
// slots in item order, so the result is bit-identical no matter how many
// threads ran or which thread picked which item.

#ifndef SIOT_SIM_PARALLEL_RUNNER_H_
#define SIOT_SIM_PARALLEL_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"

namespace siot::sim {

/// RNG stream for one work item: deterministic in (seed, item) and
/// independent of thread count and scheduling order.
inline Rng DeriveStream(std::uint64_t seed, std::uint64_t item) {
  return Rng(MixSeed(seed, item));
}

/// Fixed thread pool; see file comment. Thread count 1 executes inline on
/// the calling thread (no pool threads, no synchronization).
class ParallelRunner {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency().
  explicit ParallelRunner(std::size_t threads = 1);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  /// Number of concurrent workers (pool threads + the calling thread).
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Runs body(item, worker) for every item in [0, count). Items are
  /// claimed dynamically; worker is in [0, thread_count()) and identifies
  /// which worker runs the call (stable within one item, so per-worker
  /// scratch state is safe).
  /// Blocks until every item completed. `body` must confine its writes to
  /// item- or worker-owned state.
  ///
  /// Exception safety: if `body` throws, the job is cancelled (workers
  /// stop claiming new items promptly — a worker already past the
  /// cancellation check may finish claiming/running one more item), every
  /// worker drains off the stack-allocated job state, and the FIRST
  /// exception is rethrown from ForEach on the calling thread — regardless
  /// of which worker's item threw. The runner stays usable for subsequent
  /// ForEach calls.
  void ForEach(std::size_t count,
               const std::function<void(std::size_t item,
                                        std::size_t worker)>& body);

 private:
  struct Job {
    std::size_t count = 0;
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> cancelled{false};
    /// First body exception. Its lock lives here (not on the runner)
    /// because the job is stack-allocated per ForEach and the error is
    /// written from whichever worker's item threw first.
    std::exception_ptr error SIOT_GUARDED_BY(error_mutex);
    Mutex error_mutex;  ///< Leaf lock: nothing is acquired under it.
  };

  void WorkerLoop(std::size_t worker_id);
  static void RunJob(Job& job, std::size_t worker_id);

  std::vector<std::thread> workers_;
  /// Leaf lock: guards job hand-off only; never held while `body` runs.
  Mutex mutex_;
  CondVar work_ready_;
  CondVar work_done_;
  Job* job_ SIOT_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t job_serial_ SIOT_GUARDED_BY(mutex_) = 0;
  /// Pool threads finished with the current job. Lives on the runner
  /// (not in Job) so the guarding relation is expressible: a nested
  /// struct cannot name the enclosing runner's mutex_ in an attribute.
  std::size_t workers_done_ SIOT_GUARDED_BY(mutex_) = 0;
  bool stopping_ SIOT_GUARDED_BY(mutex_) = false;
};

}  // namespace siot::sim

#endif  // SIOT_SIM_PARALLEL_RUNNER_H_
