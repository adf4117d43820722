// Copyright 2026 The siot-trust Authors.
// Spans recorded by the benchmark around its calls into each layer's
// public functions. A span carries a name, a start, an end, a parent and
// a request id (spans of one request share it), plus an item count so
// ratios are measured at the same boundary as the time. Each thread owns
// a SpanLog (no locking on the hot path); the logs are merged when the
// run ends and written out as CSV.
//
// A layer's self time is its span minus its child spans. Where the
// benchmark times a lower layer by calling it again on the same inputs
// (TrustEngine::RequestDelegation beside TrustService::RequestDelegation),
// the lower call is recorded as the child of the upper one although it
// runs before or after it, so "upper minus child" is the upper layer's
// own cost.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  /// Points at a string literal (static storage).
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the parent span in the same log; -1 for a root.
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  /// Work items the span covered (candidates, frames, records...).
  std::uint64_t items = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanLog {
 public:
  /// Opens a span now; returns its index for End and as a parent.
  std::int64_t Begin(const char* name, std::int64_t parent,
                     std::uint64_t request) {
    spans_.push_back({name, NowNs(), 0, parent, request, 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void End(std::int64_t span, std::uint64_t items = 0) {
    spans_[span].end_ns = NowNs();
    spans_[span].items = items;
  }
  /// Runs `fn` inside a span and returns its result.
  template <typename Fn>
  auto Time(const char* name, std::int64_t parent, std::uint64_t request,
            Fn&& fn, std::int64_t* span_out = nullptr) {
    const std::int64_t span = Begin(name, parent, request);
    if (span_out != nullptr) *span_out = span;
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      End(span);
    } else {
      auto result = fn();
      End(span);
      return result;
    }
  }
  /// Makes `parent` the parent of `span`, which may have run before it.
  void SetParent(std::int64_t span, std::int64_t parent) {
    spans_[span].parent = parent;
  }
  /// Appends `other`'s spans, rebasing their parent indices.
  void Merge(const SpanLog& other);
  void Clear() { spans_.clear(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per span name: each span's self time in ns (its duration minus the
/// durations of its children).
std::map<std::string, std::vector<double>> SelfTimesByName(
    const std::vector<Span>& spans);

/// Per span name: each span's full duration in ns.
std::map<std::string, std::vector<double>> DurationsByName(
    const std::vector<Span>& spans);

/// Per span name: Σ items and Σ duration (ns).
std::map<std::string, std::pair<double, double>> ItemTotalsByName(
    const std::vector<Span>& spans);

/// Writes `name,start_ns,end_ns,parent,request,items` lines to `path`.
siot::Status WriteSpans(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
