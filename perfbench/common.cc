#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "query/interpreter.h"
#include "workload/generator.h"

namespace perfbench {

using tchimera::Database;
using tchimera::Interval;
using tchimera::Oid;
using tchimera::Value;

tchimera::Result<Population> BuildPopulation(uint64_t seed, bool with_index) {
  Population out;
  out.db = std::make_unique<Database>();
  tchimera::PopulationConfig config;
  config.seed = seed;
  config.persons = kEmployees;
  config.projects = 10;
  config.tasks_per_project = 3;
  config.timesteps = static_cast<size_t>(kHistoryInstants);
  config.updates_per_step = 4;
  TCH_ASSIGN_OR_RETURN(tchimera::Population pop,
                       tchimera::PopulateDatabase(out.db.get(), config));
  out.employees = pop.persons;
  out.now = out.db->now();
  out.history_start = out.now - kHistoryInstants;
  // Correct every salary history with 100 retroactive two-instant
  // values, the same shape of write tql_write keeps making: the history
  // starts at the splice pattern's steady state (~70 segments over 100
  // instants) instead of drifting toward it during the measured run.
  tchimera::Rng rng(seed ^ 0x5a1a7e5ULL);
  for (Oid oid : out.employees) {
    for (int64_t i = 0; i < kHistoryInstants; ++i) {
      const int64_t lo = rng.Uniform(out.history_start, out.now - 2);
      TCH_RETURN_IF_ERROR(out.db->UpdateAttributeAt(
          oid, "salary", Interval(lo, lo + 1),
          Value::Integer(rng.Uniform(20000, 120000))));
    }
  }
  std::vector<int64_t> segments;  // every salary segment's value
  for (Oid oid : out.employees) {
    const Value* salary = out.db->GetObject(oid)->Attribute("salary");
    for (const auto& segment : salary->AsTemporal().segments()) {
      segments.push_back(segment.value.AsInteger());
    }
  }
  std::sort(segments.begin(), segments.end(), std::greater<int64_t>());
  for (size_t above : {100, 200, 300, 400}) {
    out.select_thresholds.push_back(segments[above]);
  }
  if (with_index) {
    tchimera::Interpreter interp(out.db.get());
    TCH_RETURN_IF_ERROR(interp.Execute(kIndexDdl).status());
  }
  return out;
}

namespace {

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out + "\"";
}

}  // namespace

LatencySamples::LatencySamples() {
  parts_.emplace_back();
  parts_[0].kept.assign(kCapacity, 0);  // touch every page now
}

void LatencySamples::Add(int64_t latency_ns) {
  Part& own = parts_[0];
  const uint32_t ns = static_cast<uint32_t>(
      std::clamp<int64_t>(latency_ns, 0, std::numeric_limits<uint32_t>::max()));
  ++own.seen;
  if (own.size < kCapacity) {
    own.kept[own.size++] = ns;
    return;
  }
  // Reservoir sampling (Algorithm R) with a xorshift64 stream.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const uint64_t slot = rng_ % own.seen;
  if (slot < kCapacity) own.kept[slot] = ns;
}

void LatencySamples::Append(const LatencySamples& other) {
  for (const Part& part : other.parts_) {
    if (part.seen == 0) continue;
    Part copy;
    copy.kept.assign(part.kept.begin(), part.kept.begin() + part.size);
    copy.size = part.size;
    copy.seen = part.seen;
    parts_.push_back(std::move(copy));
  }
}

uint64_t LatencySamples::count() const {
  uint64_t total = 0;
  for (const Part& part : parts_) total += part.seen;
  return total;
}

double LatencySamples::QuantileUs(double q) const {
  std::vector<std::pair<uint32_t, double>> weighted;
  double total = 0;
  for (const Part& part : parts_) {
    if (part.size == 0) continue;
    const double weight = static_cast<double>(part.seen) / part.size;
    for (size_t i = 0; i < part.size; ++i) {
      weighted.emplace_back(part.kept[i], weight);
    }
    total += part.seen;
  }
  if (weighted.empty()) return 0;
  std::sort(weighted.begin(), weighted.end());
  const double target = std::max(q * total, 1.0);
  double cumulative = 0;
  for (const auto& [ns, weight] : weighted) {
    cumulative += weight;
    if (cumulative >= target - 1e-9) return ns / 1000.0;
  }
  return weighted.back().first / 1000.0;
}

size_t CountDistinct(std::vector<size_t> hashes) {
  std::sort(hashes.begin(), hashes.end());
  return std::unique(hashes.begin(), hashes.end()) - hashes.begin();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void RunResult::Metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void RunResult::Meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, JsonQuote(value));
}

void RunResult::Meta(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  meta_.emplace_back(key, buf);
}

void RunResult::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  failures_.push_back(why);
}

std::string RunResult::ToJson(const std::string& workload) const {
  std::string out = "{\"workload\": " + JsonQuote(workload);
  out += ", \"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char buf[64];
    double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += JsonQuote(metrics_[i].name) + ": {\"value\": " + buf +
           ", \"unit\": " + JsonQuote(metrics_[i].unit) + "}";
  }
  out += "}, \"meta\": {";
  for (size_t i = 0; i < meta_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(meta_[i].first) + ": " + meta_[i].second;
  }
  out += "}, \"check_failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(failures_[i]);
  }
  out += "]}";
  return out;
}

void AddLatencyMetrics(RunResult* out, const std::string& prefix,
                       const LatencySamples& samples) {
  out->Metric(prefix + "_p50_us", samples.QuantileUs(0.50), "us");
  out->Metric(prefix + "_p99_us", samples.QuantileUs(0.99), "us");
  out->Metric(prefix + "_samples", static_cast<double>(samples.count()),
              "count");
}

void AddEndToEndMetrics(RunResult* out, const LatencySamples& all,
                        double seconds) {
  out->Metric("ops_per_s", all.count() / seconds, "1/s");
  out->Metric("p50_us", all.QuantileUs(0.50), "us");
  out->Metric("p99_us", all.QuantileUs(0.99), "us");
  out->Metric("samples", static_cast<double>(all.count()), "count");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

void AddRunMeta(RunResult* out, const Options& options) {
  out->Meta("host_nproc", static_cast<double>(std::thread::hardware_concurrency()));
  out->Meta("build_type", PERFBENCH_BUILD_TYPE);
  out->Meta("git_sha", options.git_sha);
  out->Meta("seed", static_cast<double>(options.seed));
  out->Meta("seconds", options.seconds);
  out->Meta("trace", options.trace ? 1.0 : 0.0);
  out->Meta("employees", static_cast<double>(kEmployees));
  out->Meta("history_instants", static_cast<double>(kHistoryInstants));
}

}  // namespace perfbench
