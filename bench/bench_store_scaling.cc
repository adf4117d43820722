// Copyright 2026 The siot-trust Authors.
// Store-scaling bench: the pair-major TrustStore and the overlay snapshot
// on the largest bundled dataset (Google+). Every DirectExperience lookup
// is one pair probe, the snapshot materializes those lookups once per
// directed edge, and PrepareTasks turns them into per-task hop caches, so
// a query is a pure read. This binary times each of those stages for the
// §5.5 query workload, and shows the parallel runner scaling the full
// experiment with bit-identical output (median of repeated runs, with the
// process CPU time beside the wall time).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table.h"
#include "graph/datasets.h"
#include "sim/network_setup.h"
#include "sim/transitivity_experiment.h"
#include "trust/overlay_snapshot.h"
#include "trust/transitivity.h"
#include "trust/trust_store.h"

namespace siot {
namespace {

// ------------------------------------------------------------------------
// Shared fixture: Google+ world and a pair-major store holding, for every
// directed edge (u, v), the records u holds about v's experienced tasks.
// ------------------------------------------------------------------------

struct Fixture {
  graph::SocialDataset dataset;
  sim::SiotWorld world;
  trust::Normalizer normalizer{trust::NormalizationRange::kUnit, 1.0};
  trust::TrustStore pair_store;
  std::vector<std::pair<trust::AgentId, trust::TaskId>> queries;

  static const Fixture& Get() {
    static const Fixture* fixture = new Fixture();
    return *fixture;
  }

 private:
  Fixture()
      : dataset(graph::LoadDataset(graph::SocialNetwork::kGooglePlus)),
        world(MakeWorld(dataset)) {
    const graph::Graph& graph = dataset.graph;
    for (graph::NodeId u = 0; u < graph.node_count(); ++u) {
      for (graph::NodeId v : graph.Neighbors(u)) {
        for (const trust::TaskExperience& exp :
             world.DirectExperience(u, v)) {
          // Estimates whose Eq. 18 trustworthiness is exp.trustworthiness
          // under the unit normalizer: raw profit S·G − (1−S)·D − C with
          // G=1, D=1, C=0 equals 2S−1, and N maps [-2,1] → [0,1].
          const double s = (3.0 * exp.trustworthiness - 1.0) / 2.0;
          const trust::OutcomeEstimates estimates{s, 1.0, 1.0, 0.0};
          pair_store.Put(u, v, exp.task, estimates);
        }
      }
    }
    Rng rng(17);
    for (int i = 0; i < 16; ++i) {
      queries.emplace_back(
          static_cast<trust::AgentId>(rng.NextBounded(graph.node_count())),
          world.SampleRequest(rng));
    }
  }

  static sim::SiotWorld MakeWorld(const graph::SocialDataset& dataset) {
    Rng rng(2026);
    sim::WorldConfig config;
    config.characteristic_count = 6;
    return sim::SiotWorld::BuildRandom(dataset.graph, config, rng);
  }
};

trust::TransitivityParams SweepParams() {
  trust::TransitivityParams params;
  params.omega1 = 0.5;
  params.omega2 = 0.0;
  params.max_hops = 5;
  return params;
}

/// The tasks the fixture's queries ask for (PrepareTasks dedupes them).
std::vector<trust::TaskId> QueriedTasks() {
  std::vector<trust::TaskId> tasks;
  for (const auto& query : Fixture::Get().queries) {
    tasks.push_back(query.second);
  }
  return tasks;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// CPU time (user + system) this process has used so far, every thread
/// included, in ms.
double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// True when two experiment runs report the same tallies and averages.
bool SameResult(const sim::TransitivityResult& a,
                const sim::TransitivityResult& b) {
  if (a.methods.size() != b.methods.size()) return false;
  for (std::size_t m = 0; m < a.methods.size(); ++m) {
    const auto& x = a.methods[m];
    const auto& y = b.methods[m];
    if (x.tally.successes != y.tally.successes ||
        x.tally.failures != y.tally.failures ||
        x.tally.unavailable != y.tally.unavailable ||
        x.avg_potential_trustees != y.avg_potential_trustees ||
        x.inquired_per_trustor != y.inquired_per_trustor) {
      return false;
    }
  }
  return true;
}

void PrintReproduction() {
  bench::PrintBanner(
      "Store scaling",
      "Pair-major TrustStore, overlay snapshot and prepared hop caches "
      "(§5.5 workload)");
  const Fixture& fixture = Fixture::Get();
  std::printf(
      "Google+ stand-in: %zu nodes, %zu directed edges, %zu trust "
      "records\n\n",
      fixture.dataset.graph.node_count(),
      2 * fixture.dataset.graph.edge_count(), fixture.pair_store.size());

  const trust::StoreTrustOverlay overlay(fixture.pair_store,
                                         fixture.normalizer);
  auto start = std::chrono::steady_clock::now();
  const trust::TrustOverlaySnapshot snapshot(fixture.dataset.graph, overlay);
  const double build_ms = MillisSince(start);
  trust::TransitivitySearch search(snapshot, fixture.world.catalog(),
                                   SweepParams());
  start = std::chrono::steady_clock::now();
  search.PrepareTasks(QueriedTasks());
  const double prepare_ms = MillisSince(start);
  start = std::chrono::steady_clock::now();
  for (const auto& [trustor, task] : fixture.queries) {
    for (const trust::TransitivityMethod method :
         sim::kAllTransitivityMethods) {
      benchmark::DoNotOptimize(search.FindPotentialTrustees(
          trustor, fixture.world.catalog().Get(task), method));
    }
  }
  const double query_ms =
      MillisSince(start) / static_cast<double>(fixture.queries.size() * 3);

  TextTable table("Transitivity pipeline cost (max_hops 5)");
  table.SetHeader({"stage", "ms"});
  table.AddRow({"overlay snapshot build (every directed edge)",
                FormatDouble(build_ms, 2)});
  table.AddRow({"PrepareTasks (the queried tasks)",
                FormatDouble(prepare_ms, 2)});
  table.AddRow({"prepared query (mean over 3 methods)",
                FormatDouble(query_ms, 3)});
  std::fputs(table.Render().c_str(), stdout);
  std::printf("\n");

  // Parallel runner: full §5.5 experiment on the same dataset by thread
  // count, asserting bit-identical outputs. One run's wall time on a shared
  // VM swings with the host scheduler, so each thread count runs
  // kScalingRepeats times and the table shows the median wall time, the
  // median process CPU time beside it (CPU ≈ wall means only one thread
  // was running at a time) and the speedup of the medians.
  constexpr int kScalingRepeats = 5;
  sim::TransitivityConfig config;
  config.world.characteristic_count = 6;
  config.seed = 2026;
  TextTable scaling(StrFormat(
      "Full experiment by threads (seed 2026, median of %d runs)",
      kScalingRepeats));
  scaling.SetHeader(
      {"threads", "wall ms", "CPU ms", "speedup", "identical to serial"});
  std::optional<sim::TransitivityResult> serial;
  double serial_ms = 0.0;
  const std::vector<std::size_t> thread_counts =
      bench::QuickMode() ? std::vector<std::size_t>{1, 2}
                         : std::vector<std::size_t>{1, 2, 4, 8};
  for (const std::size_t threads : thread_counts) {
    config.threads = threads;
    std::vector<double> wall_ms;
    std::vector<double> cpu_ms;
    bool same = true;
    for (int run = 0; run < kScalingRepeats; ++run) {
      const double cpu_start = ProcessCpuMs();
      const auto start = std::chrono::steady_clock::now();
      const sim::TransitivityResult result =
          sim::RunTransitivityExperiment(fixture.dataset, config);
      wall_ms.push_back(MillisSince(start));
      cpu_ms.push_back(ProcessCpuMs() - cpu_start);
      if (!serial.has_value()) serial = result;
      same = same && SameResult(*serial, result);
    }
    const double ms = Median(wall_ms);
    if (threads == 1) serial_ms = ms;
    scaling.AddRow({StrFormat("%zu", threads), FormatDouble(ms, 1),
                    FormatDouble(Median(cpu_ms), 1),
                    FormatDouble(serial_ms / ms, 2),
                    same ? "yes" : "NO — BUG"});
  }
  std::fputs(scaling.Render().c_str(), stdout);
  std::printf(
      "hardware threads available: %u — wall-clock speedup is bounded by\n"
      "this; the determinism column must read \"yes\" at every thread "
      "count\n(at 1 thread it compares the repeats with the first run).\n",
      std::thread::hardware_concurrency());
}

// ------------------------------------------------------------- kernels --

void BM_ExperiencedTasksPairMajor(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  Rng rng(3);
  const std::size_t n = fixture.dataset.graph.node_count();
  for (auto _ : state) {
    const auto u = static_cast<trust::AgentId>(rng.NextBounded(n));
    const auto v = static_cast<trust::AgentId>(rng.NextBounded(n));
    benchmark::DoNotOptimize(fixture.pair_store.ExperiencedTasks(u, v));
  }
}
BENCHMARK(BM_ExperiencedTasksPairMajor);

void BM_SearchSnapshot(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const trust::StoreTrustOverlay overlay(fixture.pair_store,
                                         fixture.normalizer);
  const trust::TrustOverlaySnapshot snapshot(fixture.dataset.graph,
                                             overlay);
  trust::TransitivitySearch search(snapshot, fixture.world.catalog(),
                                   SweepParams());
  search.PrepareTasks(QueriedTasks());
  const auto method = static_cast<trust::TransitivityMethod>(state.range(0));
  std::size_t q = 0;
  for (auto _ : state) {
    const auto& [trustor, task] =
        fixture.queries[q++ % fixture.queries.size()];
    benchmark::DoNotOptimize(search.FindPotentialTrustees(
        trustor, fixture.world.catalog().Get(task), method));
  }
}
BENCHMARK(BM_SearchSnapshot)->Arg(0)->Arg(1)->Arg(2);

void BM_SnapshotBuild(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const trust::StoreTrustOverlay overlay(fixture.pair_store,
                                         fixture.normalizer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trust::TrustOverlaySnapshot(fixture.dataset.graph, overlay));
  }
}
BENCHMARK(BM_SnapshotBuild);

}  // namespace
}  // namespace siot

SIOT_BENCH_MAIN(siot::PrintReproduction)
