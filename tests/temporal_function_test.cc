// Unit + property tests for TemporalFunction: construction, projection,
// splicing updates, coalescing. The property suite cross-checks a random
// sequence of Define/Erase operations against a dense per-instant map.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "core/values/temporal_function.h"

namespace tchimera {
namespace {

Value I(int64_t v) { return Value::Integer(v); }

TEST(TemporalFunctionTest, MakeSortsAndRejectsOverlap) {
  auto f = TemporalFunction::Make(
      {{Interval(11, 30), I(5)}, {Interval(5, 10), I(12)}});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->ToString(), "{<[5,10],12>,<[11,30],5>}");
  auto bad = TemporalFunction::Make(
      {{Interval(1, 10), I(1)}, {Interval(5, 20), I(2)}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kTemporalError);
}

TEST(TemporalFunctionTest, MakeCoalescesEqualAdjacent) {
  auto f = TemporalFunction::Make(
      {{Interval(1, 5), I(7)}, {Interval(6, 9), I(7)}});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->segment_count(), 1u);
  EXPECT_EQ(f->ToString(), "{<[1,9],7>}");
}

TEST(TemporalFunctionTest, AtProjectsAndRespectsDomain) {
  TemporalFunction f;
  ASSERT_TRUE(f.Define(Interval(5, 10), I(12)).ok());
  ASSERT_TRUE(f.Define(Interval(11, 30), I(5)).ok());
  EXPECT_EQ(f.At(4), nullptr);
  EXPECT_EQ(*f.At(5), I(12));
  EXPECT_EQ(*f.At(10), I(12));
  EXPECT_EQ(*f.At(11), I(5));
  EXPECT_EQ(*f.At(30), I(5));
  EXPECT_EQ(f.At(31), nullptr);
}

TEST(TemporalFunctionTest, OngoingSegmentExtends) {
  TemporalFunction f;
  ASSERT_TRUE(f.AssertFrom(20, Value::String("IDEA")).ok());
  EXPECT_EQ(f.At(19), nullptr);
  EXPECT_NE(f.At(20), nullptr);
  EXPECT_NE(f.At(1'000'000), nullptr);  // ongoing = unbounded
  EXPECT_EQ(f.Domain(50).ToString(), "{[20,50]}");
  EXPECT_EQ(f.RawDomain().ToString(), "{[20,now]}");
}

TEST(TemporalFunctionTest, DefineSplicesAroundExisting) {
  TemporalFunction f;
  ASSERT_TRUE(f.AssertFrom(10, I(1)).ok());
  // Carve a window out of the middle.
  ASSERT_TRUE(f.Define(Interval(20, 29), I(2)).ok());
  EXPECT_EQ(*f.At(15), I(1));
  EXPECT_EQ(*f.At(25), I(2));
  EXPECT_EQ(*f.At(35), I(1));
  EXPECT_EQ(f.segment_count(), 3u);
}

TEST(TemporalFunctionTest, AssertFromOverwritesFuture) {
  TemporalFunction f;
  ASSERT_TRUE(f.AssertFrom(10, I(1)).ok());
  ASSERT_TRUE(f.AssertFrom(46, I(2)).ok());
  EXPECT_EQ(f.ToString(), "{<[10,45],1>,<[46,now],2>}");
}

TEST(TemporalFunctionTest, EraseRemovesDomain) {
  TemporalFunction f;
  ASSERT_TRUE(f.Define(Interval(1, 30), I(9)).ok());
  ASSERT_TRUE(f.Erase(Interval(10, 19)).ok());
  EXPECT_NE(f.At(9), nullptr);
  EXPECT_EQ(f.At(10), nullptr);
  EXPECT_EQ(f.At(19), nullptr);
  EXPECT_NE(f.At(20), nullptr);
}

TEST(TemporalFunctionTest, CloseAt) {
  TemporalFunction f;
  ASSERT_TRUE(f.AssertFrom(10, I(1)).ok());
  f.CloseAt(25);
  EXPECT_EQ(f.ToString(), "{<[10,25],1>}");
  // Closing before the start removes the segment.
  TemporalFunction g;
  ASSERT_TRUE(g.AssertFrom(10, I(1)).ok());
  g.CloseAt(5);
  EXPECT_TRUE(g.empty());
  // Closing a non-ongoing function is a no-op.
  f.CloseAt(7);
  EXPECT_EQ(f.ToString(), "{<[10,25],1>}");
}

TEST(TemporalFunctionTest, ConstantIsImmutableAttributePattern) {
  // "Immutable attributes can be regarded as a particular case of temporal
  // ones, since their value is a constant function" (Section 1.1).
  TemporalFunction f =
      TemporalFunction::Constant(Interval::FromUntilNow(0),
                                 Value::String("fixed"));
  EXPECT_EQ(f.segment_count(), 1u);
  EXPECT_EQ(f.At(0)->AsString(), "fixed");
  EXPECT_EQ(f.At(99999)->AsString(), "fixed");
}

TEST(TemporalFunctionTest, EqualityAndCompare) {
  TemporalFunction a, b;
  ASSERT_TRUE(a.Define(Interval(1, 5), I(1)).ok());
  ASSERT_TRUE(b.Define(Interval(1, 5), I(1)).ok());
  EXPECT_EQ(a, b);
  ASSERT_TRUE(b.Define(Interval(7, 9), I(2)).ok());
  EXPECT_NE(a, b);
  EXPECT_LT(TemporalFunction::Compare(a, b), 0);
  EXPECT_GT(TemporalFunction::Compare(b, a), 0);
}

// --- property suite against a dense model ------------------------------------

constexpr TimePoint kHorizon = 80;

class TemporalFunctionPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TemporalFunctionPropertyTest, RandomOpsMatchDenseModel) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<TimePoint> point(0, kHorizon);
  std::uniform_int_distribution<int> val(0, 3);
  std::uniform_int_distribution<int> op(0, 9);

  TemporalFunction f;
  std::map<TimePoint, int64_t> model;
  for (int round = 0; round < 200; ++round) {
    TimePoint a = point(rng);
    TimePoint b = point(rng);
    if (a > b) std::swap(a, b);
    if (op(rng) < 8) {
      int64_t v = val(rng);
      ASSERT_TRUE(f.Define(Interval(a, b), I(v)).ok());
      for (TimePoint t = a; t <= b; ++t) model[t] = v;
    } else {
      ASSERT_TRUE(f.Erase(Interval(a, b)).ok());
      for (TimePoint t = a; t <= b; ++t) model.erase(t);
    }
    // Full agreement with the dense model.
    for (TimePoint t = 0; t <= kHorizon; ++t) {
      const Value* got = f.At(t);
      auto it = model.find(t);
      if (it == model.end()) {
        ASSERT_EQ(got, nullptr) << "t=" << t << " round=" << round;
      } else {
        ASSERT_NE(got, nullptr) << "t=" << t << " round=" << round;
        ASSERT_EQ(got->AsInteger(), it->second)
            << "t=" << t << " round=" << round;
      }
    }
    // Representation invariants: sorted, disjoint, coalesced.
    const auto& segs = f.segments();
    for (size_t i = 1; i < segs.size(); ++i) {
      ASSERT_GT(segs[i].interval.start(), segs[i - 1].interval.end());
      // No two adjacent equal-valued segments survive coalescing.
      if (segs[i - 1].interval.end() + 1 == segs[i].interval.start()) {
        ASSERT_NE(segs[i - 1].value, segs[i].value);
      }
    }
    ASSERT_EQ(static_cast<size_t>(f.Domain(kHorizon).Cardinality()),
              model.size());
  }
}

// AssertFrom(t, v) is Define([t, now], v) with O(1) tail paths. On
// seeded random histories — gaps, closed and ongoing tails, segments
// after t — and every t at a segment edge (same-instant rewrites
// included), both must build the same function.
TEST_P(TemporalFunctionPropertyTest, AssertFromMatchesDefineFromUntilNow) {
  std::mt19937_64 rng(GetParam());
  auto pick = [&rng](int64_t n) {
    return static_cast<int64_t>(rng() % static_cast<uint64_t>(n));
  };
  for (int round = 0; round < 300; ++round) {
    TemporalFunction f;
    for (int64_t k = pick(8); k > 0; --k) {
      const TimePoint a = pick(kHorizon);
      const TimePoint b = a + pick(10);
      switch (pick(3)) {
        case 0:
          ASSERT_TRUE(f.Define(Interval(a, b), I(pick(3))).ok());
          break;
        case 1:
          ASSERT_TRUE(f.Define(Interval::FromUntilNow(a), I(pick(3))).ok());
          break;
        default:
          ASSERT_TRUE(f.Erase(Interval(a, b)).ok());
          break;
      }
    }
    std::vector<TimePoint> ts = {0, pick(kHorizon + 10)};
    for (const TemporalFunction::Segment& seg : f.segments()) {
      const TimePoint start = seg.interval.start();
      ts.insert(ts.end(), {start, start + 1});
      if (!seg.interval.is_ongoing()) {
        const TimePoint end = seg.interval.end();
        ts.insert(ts.end(), {end, end + 1, end + 2});
      }
    }
    for (TimePoint t : ts) {
      for (int64_t v = 0; v < 3; ++v) {
        TemporalFunction fast = f;
        TemporalFunction slow = f;
        ASSERT_TRUE(fast.AssertFrom(t, I(v)).ok());
        ASSERT_TRUE(slow.Define(Interval::FromUntilNow(t), I(v)).ok());
        EXPECT_EQ(fast, slow) << f.ToString() << " asserting " << v
                              << " from " << t << ": " << fast.ToString()
                              << " vs " << slow.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemporalFunctionPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace tchimera
