// The main() of the bench binaries that write a JSON report: the
// google-benchmark suite as usual, plus the machine-readable report.
//
//   --json[=PATH]  write the report to `default_path` (or PATH) after the
//                  suite
//   --json-only    skip the google-benchmark suite (the CI artifact path)
//
// Every other argument goes to google-benchmark. Returns the process exit
// code: the report's own (its gates) when one is written.
#ifndef TCHIMERA_BENCH_REPORT_MAIN_H_
#define TCHIMERA_BENCH_REPORT_MAIN_H_

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

namespace tchimera {

inline int ReportMain(int argc, char** argv, const char* default_path,
                      int (*write_report)(const std::string& path)) {
  std::string json_path;
  bool json_only = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json-only") {
      json_only = true;
      if (json_path.empty()) json_path = default_path;
    } else if (arg == "--json") {
      json_path = default_path;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_only) {
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return json_path.empty() ? 0 : write_report(json_path);
}

}  // namespace tchimera

#endif  // TCHIMERA_BENCH_REPORT_MAIN_H_
