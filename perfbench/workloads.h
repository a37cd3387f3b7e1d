// The three workloads and the pieces they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "memfd_fs.h"
#include "query/session.h"
#include "storage/group_commit.h"
#include "trace.h"
#include "traced_storage.h"

namespace perfbench {

RunResult RunTqlRead(const Options& options);
RunResult RunTqlWrite(const Options& options);
RunResult RunMixed(const Options& options);

// --- read statements (workload_read.cc) --------------------------------------

// The read mix: snapshot, history, when, an index-backed select, and a
// select projecting salary at a past instant. `key` picks the object for
// the first three templates.
inline constexpr int kReadTemplates = 5;
std::string MakeReadStatement(int kind, tchimera::Oid key,
                              const Population& pop, tchimera::Rng* rng);

// Re-executes one read statement through the calls Session::Execute makes
// internally — ParseStatement, NormalizePlanKey, PlanCache::Lookup,
// LowerStatement on a miss, RunSelect / RunWhen, or the Interpreter —
// recording each as a replay child of `parent`. `cache` is the replay's
// own plan cache (same class and capacity as the engine's). Returns the
// statement's output, or the error text prefixed with "error: ".
std::string ReplayRead(const std::string& text, const tchimera::Database& db,
                       tchimera::PlanCache* cache, uint64_t parent,
                       uint64_t request);

// Query-layer metrics from a traced run's span summary: the replay
// children per "Session::Execute(read)" span, and their residual.
void AddQueryLayerMetrics(RunResult* out,
                          const std::map<std::string, SpanStats>& stats,
                          bool* sums_hold);

// The plan-cache hit ratio between two stats samples.
double HitRatio(const tchimera::PlanCache::Stats& before,
                const tchimera::PlanCache::Stats& after);

// --- durable engine (workload_write.cc) --------------------------------------

// An engine over the population with a group-commit journal in a
// RAM-backed run directory (memfd_fs.h), checkpointed so the directory
// recovers to the engine state. With `traced`, the sink and the
// journal's file system are the traced wrappers.
struct DurableEngine {
  std::string dir;
  std::string snapshot_path;
  std::string journal_path;
  Population pop;
  std::unique_ptr<tchimera::Engine> engine;
  std::unique_ptr<StorageCounters> counters;
  std::unique_ptr<MemfdFileSystem> files;
  std::unique_ptr<TracedFileSystem> traced_files;  // set iff traced
  std::unique_ptr<tchimera::GroupCommitJournal> journal;
  std::unique_ptr<TracedSink> sink;  // set iff traced

  ~DurableEngine();
};

tchimera::Result<std::unique_ptr<DurableEngine>> OpenDurableEngine(
    const Options& options, const std::string& name, bool traced);

// Closes the journal, recovers the run directory with RecoveryManager,
// and checks the recovered state hash against the engine's and the final
// snapshot's consistency. Failures go to `out`.
void VerifyDurableEngine(DurableEngine* d, RunResult* out);

// Replays write statements on fresh populations (with and without the
// index) as BeginTransaction / ActiveDatabase::Execute / CommitTransaction
// and adds the core-layer metrics.
void AddCoreLayerMetrics(RunResult* out, uint64_t seed,
                         const std::vector<std::string>& writes,
                         bool* sums_hold);

// Storage-layer metrics from a traced run's spans and the counter deltas.
void AddStorageLayerMetrics(RunResult* out,
                            const std::map<std::string, SpanStats>& stats,
                            uint64_t commits, uint64_t syncs, uint64_t bytes,
                            bool* sums_hold);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
