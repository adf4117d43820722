// Copyright 2026 The siot-trust Authors.

#include "tracer.h"

#include <cstdio>
#include <memory>

namespace perfbench {

void SpanLog::Merge(const SpanLog& other) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::map<std::string, std::vector<double>> SelfTimesByName(
    const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) child_ns[span.parent] += span.duration_ns();
  }
  std::map<std::string, std::vector<double>> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[spans[i].name].push_back(
        static_cast<double>(spans[i].duration_ns() - child_ns[i]));
  }
  return self;
}

std::map<std::string, std::vector<double>> DurationsByName(
    const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> durations;
  for (const Span& span : spans) {
    durations[span.name].push_back(static_cast<double>(span.duration_ns()));
  }
  return durations;
}

std::map<std::string, std::pair<double, double>> ItemTotalsByName(
    const std::vector<Span>& spans) {
  std::map<std::string, std::pair<double, double>> totals;
  for (const Span& span : spans) {
    auto& [items, ns] = totals[span.name];
    items += static_cast<double>(span.items);
    ns += static_cast<double>(span.duration_ns());
  }
  return totals;
}

siot::Status WriteSpans(const std::vector<Span>& spans,
                        const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (file == nullptr) {
    return siot::Status::IoError("cannot write span file " + path);
  }
  std::fputs("name,start_ns,end_ns,parent,request,items\n", file.get());
  for (const Span& span : spans) {
    std::fprintf(file.get(), "%s,%lld,%lld,%lld,%llu,%llu\n", span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 static_cast<unsigned long long>(span.items));
  }
  if (std::ferror(file.get()) != 0) {
    return siot::Status::IoError("short write to span file " + path);
  }
  return siot::Status::OK();
}

}  // namespace perfbench
