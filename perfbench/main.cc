// The repo benchmark binary. Runs one workload and prints one JSON
// object (every metric it measured, run metadata, check failures) as the
// last line of standard output. run.py builds this binary and turns that
// line into the benchmark's result.
//
//   tchimera_perfbench --workload tql_read|tql_write|mixed
//       --seed N --seconds S --trace 0|1 --work-dir DIR [--git-sha SHA]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "server/net.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.work_dir.empty() || options.seconds <= 0) {
    std::fprintf(stderr, "usage: see the header of perfbench/main.cc\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  tchimera::IgnoreSigpipe();

  perfbench::RunResult result;
  if (options.workload == "tql_read") {
    result = perfbench::RunTqlRead(options);
  } else if (options.workload == "tql_write") {
    result = perfbench::RunTqlWrite(options);
  } else if (options.workload == "mixed") {
    result = perfbench::RunMixed(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::printf("%s\n", result.ToJson(options.workload).c_str());
  return 0;
}
