// Copyright 2026 The siot-trust Authors.

#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace perfbench {
namespace {

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ull;
  return h ^ (h >> 29);
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto written = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, written.ptr);
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricJson(const Metric& metric) {
  return JsonString(metric.name) + ": {\"value\": " +
         FormatNumber(metric.value) + ", \"unit\": " +
         JsonString(metric.unit) + "}";
}

StatusOr<std::uint64_t> ParseUnsigned(const std::string& text,
                                      const std::string& flag) {
  std::uint64_t value = 0;
  const auto parsed =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (parsed.ec != std::errc() || parsed.ptr != text.data() + text.size()) {
    return Status::InvalidArgument(flag + " expects a whole number, got '" +
                                   text + "'");
  }
  return value;
}

}  // namespace

StatusOr<Options> ParseOptions(std::span<const std::string> args) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (std::size_t i = 0; i < args.size(); i += 2) {
    const std::string& flag = args[i];
    if (i + 1 >= args.size()) {
      return Status::InvalidArgument(flag + " needs a value");
    }
    const std::string& value = args[i + 1];
    if (flag == "--workload") {
      if (std::find(std::begin(kWorkloads), std::end(kWorkloads), value) ==
          std::end(kWorkloads)) {
        return Status::InvalidArgument("unknown workload '" + value + "'");
      }
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      auto seed = ParseUnsigned(value, flag);
      if (!seed.ok()) return seed.status();
      options.seed = seed.value();
      have_seed = true;
    } else if (flag == "--seconds") {
      auto seconds = ParseUnsigned(value, flag);
      if (!seconds.ok()) return seconds.status();
      if (seconds.value() < 1 || seconds.value() > 600) {
        return Status::InvalidArgument("--seconds must be in [1, 600]");
      }
      options.seconds = static_cast<int>(seconds.value());
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("--trace expects 0 or 1");
      }
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Status::InvalidArgument("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Status::InvalidArgument(
        "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> "
        "[--workdir <dir>]");
  }
  if (options.workdir.empty()) options.workdir = ".bench_build/perfbench-run";
  return options;
}

Status CheckEnvironment() {
  for (const char* variable :
       {"SIOT_BENCH_QUICK", "SIOT_GROUP_COMMIT_WINDOW_US"}) {
    if (std::getenv(variable) != nullptr) {
      return Status::FailedPrecondition(
          std::string(variable) +
          " is set; it changes the program this benchmark measures — "
          "unset it and run again");
    }
  }
  return Status::OK();
}

bool ValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

std::optional<double> TailQuantile(std::vector<double>& samples, double q,
                                   std::size_t min_tail) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the k-th smallest sample, k = ceil(q·n).
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_tail) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return TailQuantile(samples, 0.5, 0).value();
}

namespace {

constexpr int kSubBits = 5;  // 32 buckets per power of two
constexpr std::uint64_t kExact = 1u << kSubBits;
constexpr int kTopExponent = 40;  // values are clamped below 2^40
/// kExact exact buckets, then kExact per power of two from 2^kSubBits.
constexpr std::size_t kBuckets = (kTopExponent - kSubBits + 1) * kExact;

std::size_t BucketOf(double value) {
  const auto v = static_cast<std::uint64_t>(
      std::clamp(std::llround(value), 0ll, (1ll << kTopExponent) - 1));
  if (v < kExact) return static_cast<std::size_t>(v);
  const int exponent = std::bit_width(v) - 1;  // >= kSubBits
  const int shift = exponent - kSubBits;
  return static_cast<std::size_t>(shift) * kExact + (v >> shift);
}

/// [lower, lower + width) of bucket `index`.
std::pair<double, double> BucketRange(std::size_t index) {
  if (index < kExact) return {static_cast<double>(index), 1.0};
  const std::size_t shift = index / kExact - 1;
  const std::uint64_t mantissa = index % kExact + kExact;
  return {static_cast<double>(mantissa << shift),
          static_cast<double>(std::uint64_t{1} << shift)};
}

}  // namespace

void Histogram::Add(double value) {
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  ++buckets_[BucketOf(value)];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

std::optional<double> Histogram::Quantile(double q,
                                          std::size_t min_tail) const {
  if (count_ == 0) return std::nullopt;
  const auto n = static_cast<std::size_t>(count_);
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_tail) return std::nullopt;
  std::size_t below = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (below + buckets_[i] < rank) {
      below += buckets_[i];
      continue;
    }
    const auto [lower, width] = BucketRange(i);
    if (width == 1.0) return lower;  // exact bucket
    // The k-th of the bucket's values, spread evenly across its width.
    const double k = static_cast<double>(rank - below);
    return lower + width * (k - 0.5) / buckets_[i];
  }
  return std::nullopt;  // unreachable: the buckets hold count_ values
}

void WindowedSamples::Append(const WindowedSamples& other) {
  if (windows_.size() < other.windows_.size()) {
    windows_.resize(other.windows_.size());
  }
  for (std::size_t w = 0; w < other.windows_.size(); ++w) {
    windows_[w].Merge(other.windows_[w]);
  }
}

std::uint64_t WindowedSamples::size() const {
  std::uint64_t total = 0;
  for (const Histogram& window : windows_) total += window.count();
  return total;
}

void MetricSet::Add(std::string name, double value, std::string unit,
                    std::uint64_t samples) {
  if (samples == 0) return;
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void MetricSet::AddLatency(const std::string& prefix,
                           const WindowedSamples& samples) {
  Histogram all;
  std::vector<double> window_p99;
  for (const Histogram& window : samples.windows_) {
    all.Merge(window);
    if (const auto p99 = window.Quantile(0.99, 10); p99.has_value()) {
      window_p99.push_back(*p99);
    }
  }
  if (all.count() == 0) return;
  const std::uint64_t count = all.count();
  Add(prefix + "_p50_us", *all.Quantile(0.5) / 1e3, "us", count);
  if (!window_p99.empty()) {
    Add(prefix + "_p99_us", Median(window_p99) / 1e3, "us", count);
  } else if (const auto p99 = all.Quantile(0.99, 10); p99.has_value()) {
    Add(prefix + "_p99_us", *p99 / 1e3, "us", count);
  }
}

const Metric* MetricSet::Find(std::string_view name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

bool CallTally::Record(const Status& status) {
  ++attempted_;
  if (!status.ok()) ++failed_;
  return status.ok();
}

void RunResult::Fail(std::string what, std::uint64_t count) {
  correct = false;
  failed += count;
  errors.push_back(std::move(what));
}

void AnswerDigest::Fold(siot::trust::AgentId trustor, std::uint64_t value) {
  std::uint64_t& hash = hashes_.at(trustor);
  hash = Mix(hash, value);
}

void AnswerDigest::FoldDelegation(
    siot::trust::AgentId trustor,
    const siot::trust::DelegationRequestResult& result) {
  std::uint64_t h = Mix(result.trustee, Bits(result.trustworthiness));
  h = Mix(h, Bits(result.expected_profit));
  h = Mix(h, static_cast<std::uint64_t>(result.no_candidates) |
                 static_cast<std::uint64_t>(result.unavailable) << 1 |
                 static_cast<std::uint64_t>(result.self_execution) << 2);
  for (const siot::trust::AgentId refusal : result.refusals) {
    h = Mix(h, refusal);
  }
  Fold(trustor, h);
}

void AnswerDigest::FoldDouble(siot::trust::AgentId trustor, double value) {
  Fold(trustor, Bits(value));
}

void AnswerDigest::MergeDisjoint(const AnswerDigest& other) {
  if (hashes_.size() < other.hashes_.size()) {
    hashes_.resize(other.hashes_.size(), 0);
  }
  for (std::size_t i = 0; i < other.hashes_.size(); ++i) {
    hashes_[i] ^= other.hashes_[i];
  }
}

std::size_t CountMismatches(const AnswerDigest& observed,
                            const AnswerDigest& reference) {
  const auto& a = observed.hashes();
  const auto& b = reference.hashes();
  if (a.size() != b.size()) return std::max(a.size(), b.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) mismatches += a[i] != b[i];
  return mismatches;
}

void GateDigests(const AnswerDigest& observed, const AnswerDigest& reference,
                 RunResult* result) {
  const std::size_t mismatches = CountMismatches(observed, reference);
  if (mismatches > 0) {
    result->Fail(std::to_string(mismatches) +
                     " trustors' answer digests differ from the "
                     "single-threaded reference",
                 mismatches);
  }
}

std::vector<std::pair<std::string, std::string>> MachineContext() {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu_model = line.substr(colon + 2);
      break;
    }
  }
  return {{"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
          {"cpu_model", cpu_model},
          {"build_type", PERFBENCH_BUILD_TYPE},
          {"compiler", PERFBENCH_COMPILER}};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t DirectoryBytes(const std::string& directory) {
  std::uint64_t total = 0;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(directory, error)) {
    if (entry.is_regular_file(error)) total += entry.file_size(error);
  }
  return total;
}

std::string RenderOutput(const Options& options, const RunResult& result) {
  std::string out;
  const MetricSet& printed = options.trace ? result.per_layer
                                           : result.end_to_end;
  for (const Metric& metric : printed.all()) {
    out += "metric " + metric.name + " " + FormatNumber(metric.value) + " " +
           metric.unit + " n=" + std::to_string(metric.samples) + "\n";
  }
  for (const std::string& error : result.errors) {
    out += "gate-failure " + error + "\n";
  }

  std::string report = "{\"report\": {\"workload\": " +
                       JsonString(options.workload) +
                       ", \"seed\": " + std::to_string(options.seed) +
                       ", \"seconds\": " + std::to_string(options.seconds) +
                       ", \"trace\": " + (options.trace ? "1" : "0");
  for (const auto& [key, value] : result.context) {
    report += ", " + JsonString(key) + ": " + JsonString(value);
  }
  report += ", \"metrics\": {";
  for (std::size_t i = 0; i < printed.all().size(); ++i) {
    const Metric& metric = printed.all()[i];
    report += (i ? ", " : "") + JsonString(metric.name) +
              ": {\"value\": " + FormatNumber(metric.value) +
              ", \"unit\": " + JsonString(metric.unit) +
              ", \"samples\": " + std::to_string(metric.samples) + "}";
  }
  out += report + "}}}\n";

  std::string line = std::string("{\"correct\": ") +
                     (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](std::string_view name) {
    if (const Metric* metric = printed.Find(name); metric != nullptr) {
      line += (first ? "" : ", ") + MetricJson(*metric);
      first = false;
    }
  };
  if (options.trace) {
    for (const std::string_view name : kPerLayer) emit(name);
  } else {
    for (const std::string_view name : kGatedEndToEnd) emit(name);
  }
  return out + line + "}}\n";
}

int ExitCode(const RunResult& result) { return result.correct ? 0 : 1; }

}  // namespace perfbench
