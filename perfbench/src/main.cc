// Copyright 2026 The siot-trust Authors.
// siot_perfbench --workload <delegate-mix|report-durable|follower-transitive>
//                --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Runs one workload through the services' public API and prints its
// metrics; see harness.h for the output and workload_common.h for how
// the workloads are driven. Exits 0 only when every correctness gate
// passed, 2 on a usage or environment error.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "workload_common.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::vector<std::string> args(argv + 1, argv + argc);
  const auto options = ParseOptions(args);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 2;
  }
  if (const Status environment = CheckEnvironment(); !environment.ok()) {
    std::fprintf(stderr, "%s\n", environment.ToString().c_str());
    return 2;
  }
  std::error_code error;
  std::filesystem::create_directories(options->workdir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", options->workdir.c_str(),
                 error.message().c_str());
    return 2;
  }

  RunResult result;
  if (options->workload == "delegate-mix") {
    result = RunDelegateMix(*options);
  } else if (options->workload == "report-durable") {
    result = RunReportDurable(*options);
  } else {
    result = RunFollowerTransitive(*options);
  }
  result.end_to_end.Add("failed_share",
                        result.attempted > 0
                            ? static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted)
                            : 0.0,
                        "ratio", result.attempted);
  for (auto& entry : MachineContext()) {
    result.context.push_back(std::move(entry));
  }
  std::fputs(RenderOutput(*options, result).c_str(), stdout);
  std::fflush(stdout);
  return ExitCode(result);
}
