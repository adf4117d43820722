// Copyright 2026 The siot-trust Authors.
// Pieces every workload shares: the service configuration, the seeded
// per-client operation sequences, the closed-loop timed phase, the
// single-threaded reference replay and per-client recording.
//
// Each client owns the trustors t with t % clients == client, so no two
// clients drive the same trustor (they may share a shard). A client's
// sequence depends only on (seed, client, graph): never on timing or on
// answers, so the reference can regenerate exactly the prefix a client
// completed. Because all state an operation for trustor X touches is
// keyed by X (see service/trust_service.h), replaying a client's prefix
// on a private TrustEngine yields the answers the shared service gave.

#ifndef PERFBENCH_WORKLOAD_COMMON_H_
#define PERFBENCH_WORKLOAD_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "harness.h"
#include "service/trust_service.h"
#include "tracer.h"
#include "trust/trust_engine.h"

namespace perfbench {

namespace service = siot::service;
namespace trust = siot::trust;

inline constexpr std::size_t kShards = 16;
/// Every 13th agent refuses trustors whose reverse trust is below this.
inline constexpr double kStrictTheta = 0.75;
inline constexpr trust::AgentId kStrictEvery = 13;
/// Flush policy of both durable workloads (leader side).
inline constexpr std::chrono::microseconds kGroupCommitWindow{100};
inline constexpr std::size_t kCheckpointEveryAppends = 1000;

inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

service::TrustServiceConfig ServiceConfig();

/// DurableOptions' flush policy in words, for the report line.
std::string DurableFlushPolicy();

/// The durable-leader options both durable workloads run with.
service::PersistenceOptions DurableOptions(const std::string& directory);

/// Registers the three-task catalog (gps {0}, image {1}, traffic {0,1} —
/// traffic experience covers gps and image through Eq. 4) and the strict
/// reverse thresholds of agents [0, agents), through the service API.
Status InstallCatalog(service::TrustService& service,
                      trust::AgentId agents);

/// The same catalog and thresholds on a bare engine (the reference).
void InstallCatalog(trust::TrustEngine& engine, trust::AgentId agents);

inline constexpr trust::TaskId kTaskCount = 3;

enum class OpKind { kDelegate, kPreEvaluate, kReport };

/// Operation mix in percent; the remainder after delegate + preevaluate
/// is reports.
struct OpMix {
  unsigned delegate = 0;
  unsigned preevaluate = 0;
};

struct Op {
  OpKind kind = OpKind::kReport;
  service::DelegationServiceRequest delegation;
  service::PreEvaluateRequest preevaluation;
  service::OutcomeReport report;
};

/// Seeded, fixed operation sequence of one client.
class OpGenerator {
 public:
  OpGenerator(const siot::graph::Graph& graph, OpMix mix,
              std::uint64_t seed, std::size_t client, std::size_t clients);
  void Next(Op* op);

 private:
  trust::AgentId NextTrustor();
  trust::AgentId RandomNeighbor(trust::AgentId trustor);
  service::OutcomeReport RandomReport(trust::AgentId trustor);

  const siot::graph::Graph& graph_;
  OpMix mix_;
  siot::Rng rng_;
  std::size_t client_;
  std::size_t clients_;
  std::size_t owned_;
};

/// Applies `op` to the engine and folds the answer into `digest`.
void ApplyToEngine(const Op& op, trust::TrustEngine& engine,
                   AnswerDigest& digest);

/// Deterministic warm-up reports: every trustor reports on each of its
/// first `neighbors_per_trustor` neighbours (all when 0) for
/// `tasks_per_edge` tasks (task k for k < tasks_per_edge when that covers
/// every task, else one random task per edge).
struct PrewarmSpec {
  std::size_t neighbors_per_trustor = 0;
  std::size_t tasks_per_edge = 1;
};

/// Passes the warm-up reports of `spec` to `sink` one at a time, in a
/// fixed order drawn from `seed`: the same every call, so the reference
/// regenerates them instead of anyone holding them all in memory.
void ForEachPrewarmReport(
    const siot::graph::Graph& graph, std::uint64_t seed, PrewarmSpec spec,
    const std::function<void(const service::OutcomeReport&)>& sink);

/// Feeds the warm-up reports of `spec` to the service in batches (one
/// flush per batch); returns how many it fed.
StatusOr<std::uint64_t> FeedPrewarm(service::TrustService& service,
                                    const siot::graph::Graph& graph,
                                    std::uint64_t seed, PrewarmSpec spec);

/// Single-threaded reference: for every client, a private engine replays
/// the `prewarm` reports of the client's trustors (none without a spec)
/// and then the first `completed[client]` operations of its sequence.
/// Clients replay in parallel (each on its own engine); nothing here is
/// timed.
AnswerDigest ReferenceDigest(const siot::graph::Graph& graph, OpMix mix,
                             std::uint64_t seed,
                             const std::vector<std::uint64_t>& completed,
                             std::optional<PrewarmSpec> prewarm);

/// What one client thread records.
struct ClientRecord {
  explicit ClientRecord(std::size_t agents) : digest(agents) {}
  CallTally tally;
  /// Untraced latencies in ns, and transitive answers' staleness in ops.
  WindowedSamples delegate_ns, preeval_ns, report_ns, transitive_ns;
  Histogram stale_ops;
  /// Untraced operations completed per window.
  std::vector<std::uint64_t> window_ops;
  std::uint64_t completed = 0;  ///< Operations of the sequence issued.
  std::uint64_t untraced_ops = 0;
  std::uint64_t traced_ops = 0;
  AnswerDigest digest;
  SpanLog spans;
};

/// The closed-loop timed phase, cut into quarter-second windows. Threads
/// spin in AwaitStart, then loop until `stop`. With tracing, the main
/// thread flips `tracing` every window so traced and untraced windows
/// interleave and see the same state drift; an operation is traced when
/// it starts in a traced window and is counted in the window it ends in.
class TimedPhase {
 public:
  static constexpr std::int64_t kWindowNs = 250'000'000;

  void AwaitStart() const;
  bool running() const { return !stop_.load(std::memory_order_relaxed); }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }
  std::uint32_t WindowOf(std::int64_t ns) const {
    return static_cast<std::uint32_t>((ns - start_ns_) / kWindowNs);
  }
  /// Releases the clients, measures for `seconds`, stops them.
  void Run(int seconds, bool trace);
  double untraced_seconds() const { return untraced_s_; }
  double traced_seconds() const { return traced_s_; }
  /// Per window: its measured length and whether it was traced.
  const std::vector<double>& window_seconds() const { return window_s_; }
  const std::vector<bool>& window_traced() const { return window_traced_; }

 private:
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> tracing_{false};
  std::int64_t start_ns_ = 0;
  double untraced_s_ = 0.0;
  double traced_s_ = 0.0;
  std::vector<double> window_s_;
  std::vector<bool> window_traced_;
};

/// Records one finished untraced operation: its latency into `sink`
/// and its completion into the window count.
void RecordUntraced(const TimedPhase& phase, std::int64_t start_ns,
                    std::int64_t end_ns, WindowedSamples& sink,
                    ClientRecord& record);

/// Calls `op` on the service, timing it into `record` (untraced) or as a
/// span (traced), and folds the answer into the digest. Without a phase
/// (warm-up) nothing is timed.
void IssueOp(const Op& op, service::TrustService& service, bool traced,
             ClientRecord& record, const TimedPhase* phase = nullptr);

/// The timed phase of a workload whose clients share one service: one
/// closed-loop thread per generator, each issuing its own sequence.
void RunClients(std::vector<OpGenerator>& generators,
                service::TrustService& service,
                std::vector<ClientRecord>& records, const Options& options,
                TimedPhase& phase);

/// The digest gate: the clients' answers against ReferenceDigest of the
/// prefixes they completed. Returns the operations the clients issued.
std::uint64_t CheckAgainstReference(
    const siot::graph::Graph& graph, OpMix mix, std::uint64_t seed,
    const std::vector<ClientRecord>& records, PrewarmSpec prewarm,
    RunResult* result);

/// Set-up repeated `times` times: returns each repetition's seconds; the
/// object built by the last one is what the run uses.
std::vector<double> RepeatSetup(int times, const std::function<void()>& setup);

/// Adds the end-to-end metrics every workload shares from the client
/// records, the set-up samples and the timed phase. Call right after the
/// timed phase: it also reads the peak resident set so far.
void AddCommonEndToEnd(const std::vector<ClientRecord>& records,
                       std::vector<double> setup_s, const TimedPhase& phase,
                       RunResult* result);

/// ops_per_s of the untraced slices, and trace.overhead_share /
/// trace.spans into the per-layer set.
void AddTraceOverhead(const std::vector<ClientRecord>& records,
                      const TimedPhase& phase, RunResult* result);

/// Σ attempted / failed of the records into the result.
void AddTallies(const std::vector<ClientRecord>& records, RunResult* result);

/// Merges the clients' spans into `log`, reports trace.spans and writes
/// every span to <workdir>/trace-<workload>.csv (overwritten each run).
void FinishTrace(const Options& options, std::vector<ClientRecord>& records,
                 SpanLog& log, RunResult* result);

/// The seed stream a workload draws its graph from (clients use 0..).
inline constexpr std::uint64_t kGraphStream = 1u << 21;
inline constexpr std::uint64_t kPrewarmStream = (1u << 21) + 1;

/// The three workloads; each returns its metrics and gate results.
RunResult RunDelegateMix(const Options& options);
RunResult RunReportDurable(const Options& options);
RunResult RunFollowerTransitive(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_COMMON_H_
