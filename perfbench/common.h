// Shared pieces of the repo benchmark: the seeded population every
// workload starts from, latency samples, and the result record each
// workload fills in.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/db/database.h"
#include "workload/random.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // traces; prefix of the in-memory run directories
  std::string git_sha = "unknown";
};

// Population shape, shared by every workload.
inline constexpr size_t kEmployees = 2000;
// Clock steps the population spans: every salary history covers this
// many instants.
inline constexpr int64_t kHistoryInstants = 100;

// The seeded project-schema population: PopulateDatabase with 2000
// employees over 100 clock steps, each salary history then given 100
// retroactive corrections (UpdateAttributeAt), and optionally
// `create index emp_salary on employee (salary)`.
struct Population {
  std::unique_ptr<tchimera::Database> db;
  std::vector<tchimera::Oid> employees;  // every object in employee's extent
  tchimera::TimePoint history_start = 0;  // first instant of the histories
  tchimera::TimePoint now = 0;
  // Salary thresholds with exactly 100, 200, 300 and 400 salary segments
  // (over all instants) above them: read off the population, so the
  // index probes of the reads' selects cost the same on every seed, and
  // the planner's cost gate (estimate * 2 < extent) picks emp_salary.
  std::vector<int64_t> select_thresholds;
};

// How many times each workload sets up; setup_s is the median.
inline constexpr int kSetups = 3;

tchimera::Result<Population> BuildPopulation(uint64_t seed, bool with_index);

inline constexpr const char* kIndexDdl =
    "create index emp_salary on employee (salary)";

// Latencies of one operation kind. Memory is fixed: each recorder keeps a
// uniform sample (reservoir) of at most kCapacity latencies, allocated
// and touched up front, so the process's peak RSS does not grow with the
// number of operations a run completes. Quantiles are exact sampled
// values; merged recorders weight each kept sample by how many
// operations it stands for.
class LatencySamples {
 public:
  static constexpr size_t kCapacity = 1 << 18;

  LatencySamples();
  void Add(int64_t latency_ns);
  // Merges another recorder's sample (copied; used after the phase).
  void Append(const LatencySamples& other);
  // Operations recorded (not the kept sample size).
  uint64_t count() const;
  // The q-quantile (0..1) in microseconds, nearest-rank over the
  // weighted sample; 0 when empty.
  double QuantileUs(double q) const;

 private:
  struct Part {
    std::vector<uint32_t> kept;  // nanoseconds, saturated at ~4.3 s
    size_t size = 0;             // kept[0, size) are valid
    uint64_t seen = 0;
  };
  std::vector<Part> parts_;  // parts_[0] is this recorder's own reservoir
  uint64_t rng_ = 0x9E3779B97F4A7C15ULL;
};

// One workload run's outcome. Metrics keep insertion order; run.py picks
// the ones BENCHMARK.json names.
class RunResult {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);
  // Records a failed output check; the run is then reported incorrect.
  void Fail(const std::string& why);
  bool correct() const { return failures_.empty(); }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  // One JSON object on one line.
  std::string ToJson(const std::string& workload) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;  // JSON values
  std::vector<std::string> failures_;
};

// Adds the latency metrics (median and 99th percentile over the whole
// phase, with the sample count) for one operation kind: "read" or
// "write".
void AddLatencyMetrics(RunResult* out, const std::string& prefix,
                       const LatencySamples& samples);

// Adds the end-to-end metrics of a measured phase from all of its
// operations: completed operations per second, the latency median and
// 99th percentile, and the sample count. Pooled over the whole phase:
// interference from other work on the host comes in multi-second
// stretches, which pooling averages and per-window medians do not.
void AddEndToEndMetrics(RunResult* out, const LatencySamples& all,
                        double seconds);

// Median of the values (they are setup times: small vectors).
double Median(std::vector<double> values);
// Distinct values among statement-text hashes.
size_t CountDistinct(std::vector<size_t> hashes);

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// Records the metadata every result carries.
void AddRunMeta(RunResult* out, const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
