// Copyright 2026 The siot-trust Authors.
// Tests of the benchmark's own rules: metric naming, the p99 tail rule,
// failure accounting, the environment refusal and the digest gate.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "common/rng.h"
#include "graph/graph.h"
#include "harness.h"
#include "service/trust_service.h"
#include "workload_common.h"

namespace perfbench {
namespace {

std::shared_ptr<const siot::graph::Graph> Ring(std::size_t agents) {
  siot::graph::GraphBuilder builder(agents);
  for (std::size_t t = 0; t < agents; ++t) {
    for (std::size_t d = 1; d <= 3; ++d) {
      builder.AddEdge(static_cast<siot::graph::NodeId>(t),
                      static_cast<siot::graph::NodeId>((t + d) % agents));
    }
  }
  return std::make_shared<const siot::graph::Graph>(builder.Build());
}

Options TestOptions(bool trace) {
  Options options;
  options.workload = "delegate-mix";
  options.seed = 7;
  options.seconds = 1;
  options.trace = trace;
  return options;
}

TEST(MetricNamesTest, EveryPrintedNameIsValidAndHasAUnit) {
  RunResult result;
  result.end_to_end.Add("setup_s", 0.5, "s");
  result.end_to_end.Add("ops_per_s", 1234.5, "ops/s", 10);
  WindowedSamples ns;
  for (std::size_t i = 0; i < 5000; ++i) ns.Add(1000.0 + i, 0);
  result.end_to_end.AddLatency("report", ns);
  result.end_to_end.Add("peak_rss_mb", 42.0, "MB");
  const std::string out = RenderOutput(TestOptions(false), result);
  std::istringstream lines(out);
  std::size_t metric_lines = 0;
  const std::regex metric_line(
      R"(metric ([A-Za-z0-9_.-]+) (\S+) (\S+) n=([0-9]+))");
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("metric ", 0) != 0) continue;
    std::smatch match;
    ASSERT_TRUE(std::regex_match(line, match, metric_line)) << line;
    EXPECT_FALSE(match[3].str().empty());
    ++metric_lines;
  }
  EXPECT_EQ(metric_lines, result.end_to_end.all().size());
  for (const std::string_view name : kGatedEndToEnd) {
    EXPECT_TRUE(ValidMetricName(name)) << name;
  }
  for (const std::string_view name : kPerLayer) {
    EXPECT_TRUE(ValidMetricName(name)) << name;
  }
  EXPECT_FALSE(ValidMetricName("p99 latency"));
  EXPECT_FALSE(ValidMetricName(""));
  // The result line is last and holds exactly the four keys.
  const std::string last = out.substr(out.rfind('\n', out.size() - 2) + 1);
  EXPECT_EQ(last.rfind("{\"correct\": true, \"attempted\": 0, \"failed\": 0, "
                       "\"metrics\": {\"setup_s\": {\"value\": 0.5, "
                       "\"unit\": \"s\"}",
                       0),
            0u)
      << last;
}

TEST(MetricNamesTest, BenchmarkSpecNamesMatchTheBinary) {
  std::ifstream spec(PERFBENCH_SPEC);
  ASSERT_TRUE(spec.good()) << PERFBENCH_SPEC;
  const std::string text((std::istreambuf_iterator<char>(spec)),
                         std::istreambuf_iterator<char>());
  std::set<std::string> in_spec;
  const std::regex name(R"re("name":\s*"([^"]+)")re");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), name);
       it != std::sregex_iterator(); ++it) {
    in_spec.insert((*it)[1].str());
  }
  std::set<std::string> in_binary;
  for (const auto list :
       {std::span<const std::string_view>(kBenchmarkWorkloads),
        std::span<const std::string_view>(kGatedEndToEnd),
        std::span<const std::string_view>(kPerLayer)}) {
    for (const std::string_view entry : list) in_binary.emplace(entry);
  }
  EXPECT_EQ(in_spec, in_binary);
}

TEST(TailRuleTest, P99WithheldBelowTenTailSamples) {
  std::vector<double> samples(999, 1.0);
  EXPECT_FALSE(TailQuantile(samples, 0.99).has_value());
  samples.assign(1000, 1.0);
  EXPECT_TRUE(TailQuantile(samples, 0.99).has_value());

  MetricSet small;
  WindowedSamples few;
  for (int i = 0; i < 999; ++i) few.Add(2000.0, 0);
  small.AddLatency("delegate", few);
  EXPECT_NE(small.Find("delegate_p50_us"), nullptr);
  EXPECT_EQ(small.Find("delegate_p99_us"), nullptr);
  EXPECT_EQ(small.Find("delegate_p50_us")->samples, 999u);

  // Histogram buckets are about 3% wide; quantiles interpolate inside.
  MetricSet large;
  WindowedSamples enough;
  for (int i = 1; i <= 1000; ++i) enough.Add(i * 1000.0, 0);
  large.AddLatency("delegate", enough);
  ASSERT_NE(large.Find("delegate_p99_us"), nullptr);
  EXPECT_NEAR(large.Find("delegate_p99_us")->value, 990.0, 990.0 * 0.03);
  EXPECT_NEAR(large.Find("delegate_p50_us")->value, 500.0, 500.0 * 0.03);

  // Spread over windows too small for a p99 each, the samples still
  // give one overall when ten lie beyond it.
  MetricSet spread;
  WindowedSamples windows;
  for (int i = 1; i <= 1000; ++i) windows.Add(i * 1000.0, i % 4);
  spread.AddLatency("delegate", windows);
  ASSERT_NE(spread.Find("delegate_p99_us"), nullptr);
  EXPECT_NEAR(spread.Find("delegate_p99_us")->value, 990.0, 990.0 * 0.03);

  // A window with a burst does not move the median of window p99s.
  MetricSet bursty;
  WindowedSamples burst;
  for (std::uint32_t w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      burst.Add(i * (w == 2 ? 100000.0 : 1000.0), w);
    }
  }
  bursty.AddLatency("delegate", burst);
  ASSERT_NE(bursty.Find("delegate_p99_us"), nullptr);
  EXPECT_NEAR(bursty.Find("delegate_p99_us")->value, 990.0, 990.0 * 0.03);
  EXPECT_EQ(bursty.Find("delegate_p99_us")->samples, 3000u);
}

TEST(HistogramTest, QuantilesStayWithinABucketOfTheExactOnes) {
  Histogram histogram;
  std::vector<double> exact;
  siot::Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const double value = 200.0 + 1e6 * rng.NextDouble() * rng.NextDouble();
    histogram.Add(value);
    exact.push_back(value);
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    std::vector<double> copy = exact;
    const double expected = *TailQuantile(copy, q, 0);
    EXPECT_NEAR(*histogram.Quantile(q), expected, expected * 0.03) << q;
  }
  // Small whole numbers (staleness in ops) are exact.
  Histogram small;
  for (int i = 0; i < 9; ++i) small.Add(i);
  EXPECT_EQ(*small.Quantile(0.5), 4.0);
  EXPECT_FALSE(Histogram().Quantile(0.5).has_value());
}

TEST(MetricSetTest, AValueFromNoSamplesIsWithheld) {
  MetricSet metrics;
  metrics.Add("inference.miss_share", 0.0, "ratio", 0);
  metrics.Add("persistence.checkpoints", 0.0, "count");
  EXPECT_EQ(metrics.Find("inference.miss_share"), nullptr);
  ASSERT_NE(metrics.Find("persistence.checkpoints"), nullptr);
}

TEST(FailureAccountingTest, NonOkCountsButADeclinedDelegationDoesNot) {
  service::TrustService service(ServiceConfig());
  ASSERT_TRUE(InstallCatalog(service, 8).ok());
  for (trust::AgentId agent = 0; agent < 8; ++agent) {
    ASSERT_TRUE(service.SetReverseThreshold(agent, trust::kNoTask, 0.75).ok());
  }
  ClientRecord record(8);
  Op op;
  op.kind = OpKind::kDelegate;
  op.delegation.trustor = 0;
  op.delegation.task = 0;
  op.delegation.candidates = {1, 2, 3};
  IssueOp(op, service, false, record);
  const auto declined = service.RequestDelegation(op.delegation);
  ASSERT_TRUE(declined.ok());
  EXPECT_TRUE(declined.value().unavailable);
  EXPECT_EQ(record.tally.attempted(), 1u);
  EXPECT_EQ(record.tally.failed(), 0u);

  op.delegation.task = 99;  // not in the catalog: InvalidArgument
  IssueOp(op, service, false, record);
  op.kind = OpKind::kReport;
  op.report.trustor = 0;
  op.report.trustee = 1;
  op.report.task = 99;
  IssueOp(op, service, false, record);
  EXPECT_EQ(record.tally.attempted(), 3u);
  EXPECT_EQ(record.tally.failed(), 2u);
}

TEST(EnvironmentTest, RefusesQuickModeAndGroupCommitOverride) {
  ASSERT_TRUE(CheckEnvironment().ok());
  for (const char* variable :
       {"SIOT_BENCH_QUICK", "SIOT_GROUP_COMMIT_WINDOW_US"}) {
    ::setenv(variable, "0", 1);
    const Status refused = CheckEnvironment();
    EXPECT_TRUE(refused.IsFailedPrecondition()) << variable;
    ::unsetenv(variable);
  }
  EXPECT_TRUE(CheckEnvironment().ok());
}

TEST(DigestGateTest, ServiceRunMatchesReferenceAndAMismatchFailsTheRun) {
  const auto graph = Ring(64);
  constexpr OpMix kMix{60, 20};
  constexpr std::size_t kClients = 2;
  service::TrustService service(ServiceConfig());
  ASSERT_TRUE(InstallCatalog(service, 64).ok());
  std::vector<std::uint64_t> completed;
  AnswerDigest observed(64);
  for (std::size_t c = 0; c < kClients; ++c) {
    OpGenerator generator(*graph, kMix, 11, c, kClients);
    ClientRecord record(64);
    Op op;
    for (int i = 0; i < 500; ++i) {
      generator.Next(&op);
      IssueOp(op, service, false, record);
    }
    completed.push_back(record.completed);
    observed.MergeDisjoint(record.digest);
  }

  RunResult passing;
  GateDigests(observed, ReferenceDigest(*graph, kMix, 11, completed, {}),
              &passing);
  EXPECT_TRUE(passing.correct);
  EXPECT_EQ(ExitCode(passing), 0);

  // The reference replays one operation more for client 0: its trustors'
  // digests no longer match.
  completed[0] += 1;
  RunResult failing;
  failing.attempted = 1000;
  GateDigests(observed, ReferenceDigest(*graph, kMix, 11, completed, {}),
              &failing);
  EXPECT_FALSE(failing.correct);
  EXPECT_GE(failing.failed, 1u);
  EXPECT_NE(ExitCode(failing), 0);
  const std::string out = RenderOutput(TestOptions(false), failing);
  EXPECT_NE(out.find("{\"correct\": false"), std::string::npos);
}

TEST(OptionsTest, ParsesTheBenchmarkCommandLine) {
  const std::vector<std::string> good = {"--workload", "report-durable",
                                         "--seed", "3", "--seconds", "10",
                                         "--trace", "1"};
  const auto parsed = ParseOptions(good);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->workload, "report-durable");
  EXPECT_EQ(parsed->seed, 3u);
  EXPECT_EQ(parsed->seconds, 10);
  EXPECT_TRUE(parsed->trace);
  const std::vector<std::string> bad = {"--workload", "nope", "--seed", "3",
                                        "--seconds", "10", "--trace", "0"};
  EXPECT_FALSE(ParseOptions(bad).ok());
  EXPECT_FALSE(ParseOptions(std::vector<std::string>{"--seed", "x"}).ok());
}

}  // namespace
}  // namespace perfbench
