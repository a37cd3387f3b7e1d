#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

Tracer& GlobalTracer() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Context& Tracer::Current() {
  thread_local Context context;
  return context;
}

Tracer::Buffer* Tracer::LocalBuffer() {
  // One buffer per thread, owned by the tracer so spans survive the
  // threads (server workers) that recorded them.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto fresh = std::make_unique<Buffer>();
    fresh->spans.reserve(1 << 16);
    buffer = fresh.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(fresh));
  }
  return buffer;
}

void Tracer::Record(const Span& span) {
  if (!enabled()) return;
  LocalBuffer()->spans.push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  Tracer& tracer = GlobalTracer();
  if (!tracer.enabled()) return;
  Tracer::Context& current = Tracer::Current();
  saved_ = current;
  span_.name = name;
  span_.id = tracer.NewId();
  span_.parent = current.span;
  span_.request = request != 0 ? request : current.request;
  current.span = span_.id;
  current.request = span_.request;
  open_ = true;
  span_.start_ns = NowNs();
}

void ScopedSpan::End() {
  if (!open_) return;
  span_.end_ns = NowNs();
  open_ = false;
  Tracer::Current() = saved_;
  GlobalTracer().Record(span_);
}

ScopedSpan::~ScopedSpan() { End(); }

std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::map<std::string, SpanStats> out;
  for (const Span& span : spans) {
    SpanStats& s = out[span.name];
    ++s.count;
    s.total_ns += span.duration_ns();
    s.durations.Add(span.duration_ns());
  }
  return out;
}

uint64_t CheckNesting(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, const Span*> by_id;
  by_id.reserve(spans.size());
  for (const Span& span : spans) by_id[span.id] = &span;
  std::unordered_map<uint64_t, int64_t> nested_total;
  uint64_t violations = 0;
  auto report = [&](const Span& child, const Span& parent, const char* what) {
    if (++violations <= 5) {
      std::fprintf(stderr,
                   "perfbench: span %s (%lld ns) %s parent %s (%lld ns)\n",
                   child.name, static_cast<long long>(child.duration_ns()),
                   what, parent.name,
                   static_cast<long long>(parent.duration_ns()));
    }
  };
  for (const Span& span : spans) {
    if (span.replay || span.parent == 0) continue;
    auto it = by_id.find(span.parent);
    if (it == by_id.end()) continue;
    const Span& parent = *it->second;
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
      report(span, parent, "escapes");
    }
    nested_total[span.parent] += span.duration_ns();
  }
  for (const auto& [id, total] : nested_total) {
    const Span& parent = *by_id[id];
    if (total > parent.duration_ns()) report(parent, parent, "children exceed");
  }
  return violations;
}

void WriteSpans(std::vector<Span> spans, const std::string& path,
                size_t limit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  size_t n = std::min(limit, spans.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"replay\": %s}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 s.replay ? "true" : "false");
  }
  std::fclose(f);
}

LayerSum SumLayer(const std::map<std::string, SpanStats>& stats,
                  const std::string& parent,
                  const std::vector<std::string>& children) {
  LayerSum out;
  auto p = stats.find(parent);
  if (p == stats.end() || p->second.count == 0) {
    for (const std::string& name : children) out.children_us.emplace_back(name, 0);
    return out;
  }
  const double requests = static_cast<double>(p->second.count);
  out.parent_us = p->second.total_ns / requests / 1000.0;
  double sum = 0;
  for (const std::string& name : children) {
    auto c = stats.find(name);
    double us = c == stats.end() ? 0 : c->second.total_ns / requests / 1000.0;
    out.children_us.emplace_back(name, us);
    sum += us;
    if (us > out.parent_us) out.holds = false;
  }
  out.residual_us = out.parent_us - sum;
  if (out.residual_us < 0) out.holds = false;
  return out;
}

}  // namespace perfbench
