// Copyright 2026 The siot-trust Authors.
// Benchmark harness: command-line options, the environment refusal,
// percentiles with an honest tail rule, call accounting, answer digests,
// machine context, and the result lines the benchmark prints.
//
// Output contract: every metric is printed by name with its unit and
// sample count on a "metric ..." line, then one JSON "report" line with
// the sizes and machine context, then the result line — one JSON object
// with exactly `correct`, `attempted`, `failed` and `metrics`. The result
// line carries the metrics named in BENCHMARK.json: the end-to-end ones
// for an untraced run, the per-layer ones for a traced run.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "trust/trust_engine.h"
#include "trust/types.h"

namespace perfbench {

using siot::Status;
using siot::StatusOr;

inline constexpr std::string_view kWorkloads[] = {
    "delegate-mix", "report-durable", "follower-transitive"};

/// The workloads BENCHMARK.json lists. report-durable runs by hand only:
/// its four writers keep the WAL's fsync saturated, so its speed is the
/// shared disk's, which other tenants moved by up to 5x from one run to
/// the next.
inline constexpr std::string_view kBenchmarkWorkloads[] = {
    "delegate-mix", "follower-transitive"};

/// End-to-end metrics on the result line of an untraced run. They apply
/// to every workload, are never zero, and repeat across runs within their
/// bounds. The others — workload-specific ones (delegate_*, preeval_*,
/// transitive_*, recovery_s, ...), failed_share (zero when correct) and
/// report_p99_us (a device-flush tail on the durable workloads that does
/// not repeat within a tenth on a shared disk) — are printed on the metric
/// and report lines only.
inline constexpr std::string_view kGatedEndToEnd[] = {
    "setup_s", "ops_per_s", "report_p50_us", "peak_rss_mb"};

/// Per-layer metrics on the result line of a traced run; every workload
/// reports every one of them (see interaction_map.json for where each is
/// measured and which end-to-end metric it should move).
inline constexpr std::string_view kPerLayer[] = {
    "trust_service.delegate_self_us",
    "trust_service.preeval_self_ns",
    "trust_service.route_ns",
    "trust_engine.delegate_us",
    "trust_engine.estimate_ns",
    "trust_engine.candidates_per_delegate",
    "trust_engine.preeval_ns",
    "trust_engine.report_us",
    "trust_engine.source_direct_share",
    "trust_engine.source_eq4_share",
    "trust_engine.source_initial_share",
    "inference.probe_ns",
    "inference.miss_share",
    "update.rank_us",
    "delegation.walk_len",
    "delegation.refused_share",
    "wal_codec.encode_ns",
    "wal_codec.bytes_per_report",
    "wal_codec.decode_ns",
    "persistence.fsync_us",
    "persistence.fsyncs_per_report",
    "persistence.coalesced_share",
    "persistence.wal_bytes_per_report",
    "persistence.checkpoint_ms",
    "persistence.checkpoints",
    "persistence.read_wal_ms",
    "persistence.replay_us_per_op",
    "checkpoint_codec.encode_ms",
    "checkpoint_codec.decode_ms",
    "checkpoint_codec.bytes_per_record",
    "replication.poll_ms",
    "replication.frames_per_poll",
    "replication.apply_us_per_frame",
    "replication.lag_seq_p50",
    "overlay.rebuild_ms",
    "overlay.rebuilds",
    "overlay.directed_edges",
    "overlay_serving.query_self_us",
    "transitivity.traditional_us",
    "transitivity.conservative_us",
    "transitivity.aggressive_us",
    "graph.generate_s",
    "trace.overhead_share",
    "trace.spans",
};

/// Parsed command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  /// Scratch directory for WALs, checkpoints and the span file.
  std::string workdir;
};

/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>
/// [--workdir <dir>]`; InvalidArgument on anything else.
StatusOr<Options> ParseOptions(std::span<const std::string> args);

/// FailedPrecondition when SIOT_BENCH_QUICK or SIOT_GROUP_COMMIT_WINDOW_US
/// is set: the first shrinks bench sizes behind their names, the second
/// silently changes the flush policy of every durable service.
Status CheckEnvironment();

/// True when `name` is a printable metric name: [A-Za-z0-9_.-]+.
bool ValidMetricName(std::string_view name);

/// Nearest-rank quantile of `samples` (reordered in place). nullopt when
/// fewer than `min_tail` samples lie strictly beyond the quantile's rank
/// — a tail estimate from a handful of samples is noise, not a p99.
std::optional<double> TailQuantile(std::vector<double>& samples, double q,
                                   std::size_t min_tail = 10);

/// Median of `samples` (reordered in place); 0 when empty.
double Median(std::vector<double>& samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Observations behind the value (1 for a single measurement).
  std::uint64_t samples = 1;
};

/// Log-linear histogram of non-negative values: exact below 32, then 32
/// buckets per power of two (each about 3% wide) up to 2^40. The table
/// has a fixed size, so the memory a run records into does not grow with
/// the operations it completes, and the benchmark's own buffers do not
/// move peak_rss_mb when the service gets faster. A quantile is
/// interpolated linearly inside the bucket that holds its rank.
class Histogram {
 public:
  void Add(double value);
  void Merge(const Histogram& other);
  std::uint64_t count() const { return count_; }
  /// Nearest-rank quantile (the ceil(q·n)-th smallest value); nullopt
  /// when empty or when fewer than `min_tail` values lie beyond it.
  std::optional<double> Quantile(double q, std::size_t min_tail = 0) const;

 private:
  /// Sized on the first Add, so an unused histogram costs nothing.
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Samples tagged with the measurement window (a fixed slice of the
/// timed phase) they completed in: one Histogram per window.
class WindowedSamples {
 public:
  void Add(double value, std::uint32_t window) {
    if (windows_.size() <= window) windows_.resize(window + 1);
    windows_[window].Add(value);
  }
  /// Merges `other` window by window.
  void Append(const WindowedSamples& other);
  std::uint64_t size() const;

 private:
  friend class MetricSet;
  std::vector<Histogram> windows_;
};

class MetricSet {
 public:
  /// A value from no observations (`samples` == 0) is withheld, not
  /// printed as a 0 that would read like a measured one.
  void Add(std::string name, double value, std::string unit,
           std::uint64_t samples = 1);
  /// Adds `<prefix>_p50_us` (median of every sample) and `<prefix>_p99_us`
  /// from latencies in nanoseconds. The p99 is the median over windows of
  /// each window's p99, counting only windows with at least ten samples
  /// beyond their p99; with no such window, the p99 of all samples if
  /// that has ten beyond it, else none. A burst of interference from
  /// outside the process then moves one window's p99, not the result.
  /// Nothing when `samples` is empty.
  void AddLatency(const std::string& prefix, const WindowedSamples& samples);
  const Metric* Find(std::string_view name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Counts calls and the ones whose Status was not OK. A delegation that
/// every candidate declined returns OK with `unavailable` set: that is a
/// valid answer and does not count as failed.
class CallTally {
 public:
  /// Records one call; returns `status.ok()`.
  bool Record(const Status& status);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Everything one run produced.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet end_to_end;
  MetricSet per_layer;
  /// Sizes actually run and machine context, as ordered key/value pairs.
  std::vector<std::pair<std::string, std::string>> context;
  /// Correctness-gate failures, one line each.
  std::vector<std::string> errors;

  /// Records a correctness-gate failure: the run is not correct, and
  /// `count` is added to `failed`.
  void Fail(std::string what, std::uint64_t count = 1);
};

/// Per-trustor running hash of every answer the trustor received, in
/// its own call order. Two runs of the same per-trustor sequences are
/// equivalent iff their digests match element for element.
class AnswerDigest {
 public:
  explicit AnswerDigest(std::size_t agents = 0) : hashes_(agents, 0) {}
  void Fold(siot::trust::AgentId trustor, std::uint64_t value);
  void FoldDelegation(siot::trust::AgentId trustor,
                      const siot::trust::DelegationRequestResult& result);
  void FoldDouble(siot::trust::AgentId trustor, double value);
  /// Element-wise merge of digests over disjoint trustor sets.
  void MergeDisjoint(const AnswerDigest& other);
  const std::vector<std::uint64_t>& hashes() const { return hashes_; }

 private:
  std::vector<std::uint64_t> hashes_;
};

/// Trustors whose digests differ (a size mismatch counts every trustor).
std::size_t CountMismatches(const AnswerDigest& observed,
                            const AnswerDigest& reference);

/// The digest gate: every mismatching trustor is a failed answer.
void GateDigests(const AnswerDigest& observed, const AnswerDigest& reference,
                 RunResult* result);

/// nproc, CPU model, build type and compiler.
std::vector<std::pair<std::string, std::string>> MachineContext();

/// Peak resident set of this process, in MB.
double PeakRssMb();

/// Total bytes of the regular files under `directory`.
std::uint64_t DirectoryBytes(const std::string& directory);

/// The `metric <name> <value> <unit> n=<samples>` lines, the report line
/// and the result line (kGatedEndToEnd untraced, kPerLayer traced).
std::string RenderOutput(const Options& options, const RunResult& result);

/// Process exit code: 0 iff the run is correct.
int ExitCode(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
