// Experiment AB (DESIGN.md): ablations of this implementation's own design
// choices (distinct from the paper's design axes, which T2a-T2c cover):
//
//   1. the O(1) tail fast path in TemporalFunction::AssertFrom vs the
//      general splice (Define) it otherwise falls back to;
//   2. set-valued temporal-function extents: membership-change cost as a
//      function of extent size (the whole current set is copied per
//      change);
//   3. type interning: pointer-equality subtype checks vs re-building the
//      type from parts each time (what a non-interned design would pay).
#include <benchmark/benchmark.h>

#include "core/db/database.h"
#include "core/schema/class_def.h"
#include "core/types/subtyping.h"
#include "core/types/type_registry.h"
#include "core/values/temporal_function.h"

namespace tchimera {
namespace {

void BM_AssertFromFastPath(benchmark::State& state) {
  // Appending updates at the moving tail (the production write path).
  TemporalFunction f;
  TimePoint t = 0;
  for (auto _ : state) {
    TimePoint at = t++;
    Status s = f.AssertFrom(at, Value::Integer(at % 7));
    if (!s.ok()) state.SkipWithError("assert failed");
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("tail append (fast path)");
}
BENCHMARK(BM_AssertFromFastPath);

void BM_AssertFromGeneralSplice(benchmark::State& state) {
  // The same semantic operation forced through the general splice: the
  // cost the fast path avoids, growing with accumulated history.
  const int64_t history = state.range(0);
  TemporalFunction f;
  for (TimePoint t = 0; t < history; ++t) {
    (void)f.AssertFrom(t, Value::Integer(t % 7));
  }
  TimePoint t = history;
  for (auto _ : state) {
    TimePoint at = t++;
    Status s =
        f.Define(Interval::FromUntilNow(at), Value::Integer(at % 7));
    if (!s.ok()) state.SkipWithError("define failed");
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("general splice, history=" + std::to_string(history));
}
BENCHMARK(BM_AssertFromGeneralSplice)->Arg(8)->Arg(64)->Arg(512);

void BM_ExtentMembershipChange(benchmark::State& state) {
  // AddMember/RemoveMember edit one oid's membership rows: a binary
  // search plus one chunk copy, O(log extent + chunk), independent of how
  // many members the extent holds. The paper's set-valued `ext`
  // (Definition 4.1) is built from the rows only when read.
  const int64_t extent = state.range(0);
  ClassDef cls("c", 0, {}, {}, {}, {}, {});
  for (int64_t i = 0; i < extent; ++i) {
    (void)cls.AddMember(Oid{static_cast<uint64_t>(i + 1)}, 0);
  }
  TimePoint t = 1;
  uint64_t churn = extent + 1;
  for (auto _ : state) {
    (void)cls.AddMember(Oid{churn}, t);
    (void)cls.RemoveMember(Oid{churn}, t + 1);
    t += 2;
    ++churn;
  }
  state.SetItemsProcessed(state.iterations() * 2);
  state.SetLabel("extent=" + std::to_string(extent));
}
BENCHMARK(BM_ExtentMembershipChange)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

void BM_SubtypeInternedPointers(benchmark::State& state) {
  // With interning, a deep structural type compares by pointer: the
  // subtype check on equal types is O(1).
  EmptyIsaProvider isa;
  const Type* deep = types::SetOf(types::ListOf(types::SetOf(
      types::RecordOf({{"a", types::Integer()}, {"b", types::String()}})
          .value())));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsSubtype(deep, deep, isa));
  }
  state.SetLabel("interned (pointer equality)");
}
BENCHMARK(BM_SubtypeInternedPointers);

void BM_SubtypeRebuiltEachTime(benchmark::State& state) {
  // What a non-interned design would pay: reconstructing the type term
  // before every check (construction cost dominates; the check itself
  // still collapses via interning — the ablation isolates the factory
  // overhead a structural-equality design incurs per comparison).
  EmptyIsaProvider isa;
  const Type* reference = types::SetOf(types::ListOf(types::SetOf(
      types::RecordOf({{"a", types::Integer()}, {"b", types::String()}})
          .value())));
  for (auto _ : state) {
    const Type* rebuilt = types::SetOf(types::ListOf(types::SetOf(
        types::RecordOf({{"a", types::Integer()}, {"b", types::String()}})
            .value())));
    benchmark::DoNotOptimize(IsSubtype(rebuilt, reference, isa));
  }
  state.SetLabel("rebuilt per comparison");
}
BENCHMARK(BM_SubtypeRebuiltEachTime);

}  // namespace
}  // namespace tchimera

BENCHMARK_MAIN();
