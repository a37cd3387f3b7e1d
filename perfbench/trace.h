// Spans for the traced run. Recorded only by the benchmark's own code,
// around calls into the engine's public layer entry points; nothing in
// the engine itself is instrumented.
//
// A span has a name, start, end, parent span and request id. Spans are
// kept in per-thread buffers (the storage wrappers record from engine
// threads: server workers, group-commit leaders) and aggregated or
// written out when the run ends.
//
// Two kinds of child span exist:
//   nested — recorded while the parent was open on the same thread
//            (CommitSink::Await inside Session::Execute, WritableFile::Sync
//            inside Await). Its interval lies inside the parent's.
//   replay — a re-execution of the parent's statement through the layer
//            calls the parent makes internally (ParseStatement,
//            PlanCache::Lookup, ...), run right after the parent
//            returned. Layer sums for replays are checked on the means
//            over all requests, since the intervals cannot nest.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // 0 = not attributable to one request
  bool replay = false;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  // Off by default: Record/Scoped are then no-ops.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);

  // Every span recorded so far (merged across threads).
  std::vector<Span> Collect() const;

  // The current thread's innermost open span (parent for nested spans).
  struct Context {
    uint64_t span = 0;
    uint64_t request = 0;
  };
  static Context& Current();

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* LocalBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

Tracer& GlobalTracer();

// Opens a span on construction and records it on destruction, nested
// under the thread's current span. While open it is the current span.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  // Ends the span early (the destructor then does nothing).
  void End();

 private:
  Span span_;
  Tracer::Context saved_;
  bool open_ = false;
};

// Times `fn` as a replay child of `parent` and records it.
template <typename Fn>
auto ReplaySpan(const char* name, uint64_t parent, uint64_t request, Fn&& fn) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.replay = true;
  span.id = GlobalTracer().NewId();
  span.start_ns = NowNs();
  auto out = fn();
  span.end_ns = NowNs();
  GlobalTracer().Record(span);
  return out;
}

// Per-name totals over a span set.
struct SpanStats {
  uint64_t count = 0;
  int64_t total_ns = 0;
  LatencySamples durations;
};
std::map<std::string, SpanStats> SummarizeSpans(const std::vector<Span>& spans);

// Checks every nested span lies inside its parent and that the nested
// children of each parent do not add up to more than it. Returns the
// number of violations (each described on stderr, up to a few).
uint64_t CheckNesting(const std::vector<Span>& spans);

// Writes the first `limit` spans by start time as JSON lines to `path`.
void WriteSpans(std::vector<Span> spans, const std::string& path,
                size_t limit);

// One parent layer and its children, for the layer-sum report: the
// parent's mean per request equals the children's mean self time per
// request plus the residual. Holds when no child's mean exceeds the
// parent's and the residual is not negative.
struct LayerSum {
  double parent_us = 0;
  std::vector<std::pair<std::string, double>> children_us;
  double residual_us = 0;
  bool holds = true;
};
LayerSum SumLayer(const std::map<std::string, SpanStats>& stats,
                  const std::string& parent,
                  const std::vector<std::string>& children);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
