// End-to-end benchmark harness: one workload per invocation.
//
//   perfbench --workload <olap_unnest|adhoc_serving|compiled_repeat|
//                         out_of_core>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Generates the workload's data from the seed, sets it up (timed, several
// times), checks every query class against the canonical-memo oracle,
// runs the closed-loop window and prints one JSON object as the last line
// of stdout: {"workload", "correct", "attempted", "failed", "metrics",
// "info"}. With --trace 1 the metrics are the per-layer ones and the span
// log is written under --out. Any failed check exits 1 without a result.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

perfbench::Args ParseArgs(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      perfbench::Die("unknown argument " + key);
    }
  }
  if (args.seconds <= 0) perfbench::Die("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = ParseArgs(argc, argv);
  perfbench::Report report;
  if (args.workload == "olap_unnest") {
    report = perfbench::RunOlapUnnest(args);
  } else if (args.workload == "adhoc_serving") {
    report = perfbench::RunAdhocServing(args);
  } else if (args.workload == "compiled_repeat") {
    report = perfbench::RunCompiledRepeat(args);
  } else if (args.workload == "out_of_core") {
    report = perfbench::RunOutOfCore(args);
  } else {
    perfbench::Die("unknown workload '" + args.workload + "'");
  }
  report.info["process_peak_rss_mb"] =
      std::to_string(perfbench::ProcessPeakRssMb());

  std::string line = "{\"workload\": " + perfbench::JsonString(args.workload) +
                     ", \"correct\": true" +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : report.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    line += sep + perfbench::JsonString(name) + ": " + buf;
    sep = ", ";
  }
  line += "}, \"info\": {";
  sep = "";
  for (const auto& [name, value] : report.info) {
    line += sep + perfbench::JsonString(name) + ": " + value;
    sep = ", ";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
