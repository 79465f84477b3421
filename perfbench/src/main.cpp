// perfbench — the repo benchmark program.
//
//   perfbench --workload churn|attack|lockstep --seed N --seconds S
//             --trace 0|1 --now-shard PATH --workdir DIR
//
// Runs one workload against now_core, checks its outputs, and prints a
// human table followed by one JSON line {"correct","attempted","failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// (plus DIR/perfbench_<workload>.trace.json, a Perfetto-loadable span file)
// with --trace 1. Exits 1 when any correctness gate failed, 2 on bad usage.
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>

#include "harness.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload churn|attack|lockstep --seed N "
               "--seconds S --trace 0|1 --now-shard PATH --workdir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string_view flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--now-shard") {
        options.now_shard = value;
      } else if (flag == "--workdir") {
        options.workdir = value;
      } else {
        return usage("unknown flag " + std::string(flag));
      }
    }
  } catch (const std::exception&) {
    return usage("malformed flag value");
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  if (options.workdir.empty()) return usage("--workdir is required");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");
  std::filesystem::create_directories(options.workdir);

  perfbench::Tracer tracer(options.trace);
  perfbench::Report report;
  try {
    if (options.workload == "churn") {
      perfbench::run_churn(options, tracer, report);
    } else if (options.workload == "attack") {
      perfbench::run_attack(options, tracer, report);
    } else if (options.workload == "lockstep") {
      perfbench::run_lockstep(options, tracer, report);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    report.attempt(false, std::string("workload threw: ") + e.what());
  }
  if (options.trace) {
    const std::string path = options.workdir + "/perfbench_" +
                             options.workload + ".trace.json";
    const bool written = tracer.write_chrome_json(path, options.workload);
    report.attempt(written, "span file written");
    report.line("span file: " + path);
  }
  report.print(options.workload, options.trace);
  return report.correct() ? 0 : 1;
}
