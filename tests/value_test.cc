// Unit + property tests for the value model (Section 3.2): construction,
// canonicalization, the total order, printing and parsing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/types/type_registry.h"
#include "core/values/temporal_function.h"
#include "core/values/value.h"
#include "core/values/value_parser.h"

namespace tchimera {
namespace {

TEST(ValueTest, ScalarRoundTrips) {
  EXPECT_EQ(Value::Integer(42).AsInteger(), 42);
  EXPECT_DOUBLE_EQ(Value::Real(3.25).AsReal(), 3.25);
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Char('x').AsChar(), 'x');
  EXPECT_EQ(Value::String("IDEA").AsString(), "IDEA");
  EXPECT_EQ(Value::Time(17).AsTime(), 17);
  EXPECT_EQ(Value::OfOid(Oid{7}).AsOid(), (Oid{7}));
  EXPECT_TRUE(Value::Null().is_null());
}

// A scalar accessor called on another kind reads 0, false or 0.0, never
// the other kind's payload word (a real's bits or a payload address):
// Truthy in the VM and the evaluator test only for null before AsBool.
TEST(ValueTest, ScalarAccessorsOnOtherKindsReadZero) {
  const std::vector<Value> not_word = {
      Value::Null(),
      Value::Real(-1.5),
      Value::Real(3.25),
      Value::String("IDEA"),
      Value::Set({Value::Integer(1)}),
      Value::List({Value::Integer(2)}),
      Value::Record({{"a", Value::Integer(3)}}).value(),
      Value::Temporal(
          TemporalFunction::Constant(Interval(1, 5), Value::Integer(4))),
  };
  for (const Value& v : not_word) {
    EXPECT_EQ(v.AsInteger(), 0) << v.ToString();
    EXPECT_FALSE(v.AsBool()) << v.ToString();
    EXPECT_EQ(v.AsChar(), '\0') << v.ToString();
    EXPECT_EQ(v.AsTime(), 0) << v.ToString();
    EXPECT_EQ(v.AsOid(), Oid::Invalid()) << v.ToString();
  }
  for (const Value& v :
       {Value::Null(), Value::Integer(7), Value::Bool(true), Value::Char('x'),
        Value::Time(9), Value::OfOid(Oid{3}), Value::String("s"),
        Value::Set({Value::Real(1.0)})}) {
    EXPECT_EQ(v.AsReal(), 0.0) << v.ToString();
  }
  // The integer-like kinds share one word.
  EXPECT_EQ(Value::Bool(true).AsInteger(), 1);
  EXPECT_EQ(Value::Char('x').AsInteger(), 'x');
  EXPECT_TRUE(Value::Integer(5).AsBool());
  EXPECT_EQ(Value::Integer(-3).AsTime(), -3);
  EXPECT_EQ(Value::Integer(-3).AsChar(), static_cast<char>(-3));
}

TEST(ValueTest, RealsOrderAsNumbers) {
  // The word holds a real's bit pattern; the order is still numeric.
  EXPECT_LT(Value::Real(-2.5), Value::Real(-1.0));
  EXPECT_LT(Value::Real(-1.0), Value::Real(0.5));
  EXPECT_EQ(Value::Real(-0.0), Value::Real(0.0));
  EXPECT_DOUBLE_EQ(Value::Real(-2.5).AsReal(), -2.5);
  EXPECT_LT(Value::Integer(-2), Value::Integer(1));
  EXPECT_LT(Value::Char(static_cast<char>(-1)), Value::Char('a'));
}

// One sample of every kind that keeps a shared payload.
std::vector<Value> StructuredSamples() {
  TemporalFunction f;
  EXPECT_TRUE(f.Define(Interval(1, 10), Value::String("a")).ok());
  EXPECT_TRUE(f.Define(Interval(11, 20), Value::Integer(2)).ok());
  return {
      Value::String(std::string(40, 'z')),
      Value::Set({Value::String("x"), Value::Integer(1)}),
      Value::List({Value::String("y"), Value::String("y")}),
      Value::Record({{"n", Value::String("Bob")}, {"k", Value::Integer(1)}})
          .value(),
      Value::Temporal(std::move(f)),
  };
}

// Copy, copy-assign, self-assign and move of each structured kind; the
// sanitizer build catches a leak or a double free.
TEST(ValueTest, StructuredValuesCopyAssignAndMove) {
  for (const Value& sample : StructuredSamples()) {
    const std::string text = sample.ToString();
    SCOPED_TRACE(text);
    Value copy;
    {
      Value original = sample;
      copy = original;  // copy-assign over null
    }
    EXPECT_EQ(copy, sample);
    EXPECT_EQ(copy.ToString(), text);

    Value constructed(copy);
    EXPECT_EQ(constructed.kind(), sample.kind());
    EXPECT_EQ(constructed.ToString(), text);

    // Copy-assign over another structured value drops that one.
    Value other = Value::String("replaced");
    other = sample;
    EXPECT_EQ(other.ToString(), text);

    // Self-assignment keeps the payload alive.
    Value& alias = constructed;
    constructed = alias;
    EXPECT_EQ(constructed.ToString(), text);
    constructed = std::move(alias);
    EXPECT_EQ(constructed.ToString(), text);

    // A moved-from value is null.
    Value moved(std::move(constructed));
    EXPECT_EQ(moved.ToString(), text);
    EXPECT_TRUE(constructed.is_null());  // NOLINT(bugprone-use-after-move)
    Value target = Value::List({Value::Integer(1)});
    target = std::move(moved);
    EXPECT_EQ(target.ToString(), text);
    EXPECT_TRUE(moved.is_null());  // NOLINT(bugprone-use-after-move)

    // Scalars overwrite and are overwritten by structured values.
    Value scalar = Value::Integer(4);
    scalar = target;
    EXPECT_EQ(scalar, sample);
    target = Value::Real(1.5);
    EXPECT_DOUBLE_EQ(target.AsReal(), 1.5);
    EXPECT_EQ(scalar.ToString(), text);
  }
}

// Assigning a value a part of its own payload: the assignment drops the
// last reference to the payload that holds its source, so it must read
// the source first (the sanitizer build catches a use after free).
TEST(ValueTest, AssignFromInsideOwnPayload) {
  const Value name = Value::String(std::string(40, 'n'));

  Value list = Value::List({name, Value::Integer(7)});
  list = list.Elements()[0];
  EXPECT_EQ(list, name);
  list = Value::List({Value::Integer(7), name});
  list = list.Elements()[0];
  EXPECT_EQ(list, Value::Integer(7));

  Value set = Value::Set({name});
  set = set.Elements()[0];
  EXPECT_EQ(set, name);

  Value record =
      Value::Record({{"a", name}, {"b", Value::Real(2.5)}}).value();
  record = *record.FieldValue("a");
  EXPECT_EQ(record, name);
  record = Value::Record({{"a", name}, {"b", Value::Real(2.5)}}).value();
  record = *record.FieldValue("b");
  EXPECT_DOUBLE_EQ(record.AsReal(), 2.5);

  TemporalFunction f;
  ASSERT_TRUE(f.Define(Interval(1, 10), name).ok());
  ASSERT_TRUE(f.Define(Interval(11, 20), Value::Integer(3)).ok());
  Value temporal = Value::Temporal(f);
  temporal = *temporal.AsTemporal().At(5);
  EXPECT_EQ(temporal, name);
  temporal = Value::Temporal(f);
  temporal = *temporal.AsTemporal().At(15);
  EXPECT_EQ(temporal, Value::Integer(3));
}

// Four threads copy, assign and drop one shared temporal value; the
// reference count must end where it began (TSan checks the accesses).
TEST(ValueTest, ConcurrentCopiesOfOneTemporalValue) {
  const Value shared = StructuredSamples().back();
  ASSERT_EQ(shared.kind(), ValueKind::kTemporal);
  const std::string text = shared.ToString();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared] {
      std::vector<Value> held;
      for (int i = 0; i < 20000; ++i) {
        Value copy = shared;
        Value assigned;
        assigned = copy;
        held.push_back(std::move(copy));
        if (held.size() == 64) held.clear();
        if (assigned.AsTemporal().segment_count() != 2) std::abort();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(shared.ToString(), text);
  EXPECT_EQ(shared.AsTemporal().segment_count(), 2u);
}

TEST(ValueTest, SetsAreCanonical) {
  Value a = Value::Set({Value::Integer(3), Value::Integer(1),
                        Value::Integer(3), Value::Integer(2)});
  EXPECT_EQ(a.Elements().size(), 3u);  // duplicates removed
  EXPECT_EQ(a.ToString(), "{1,2,3}");  // sorted
  Value b = Value::Set({Value::Integer(2), Value::Integer(1),
                        Value::Integer(3)});
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.Contains(Value::Integer(2)));
  EXPECT_FALSE(a.Contains(Value::Integer(9)));
}

TEST(ValueTest, ListsPreserveOrderAndDuplicates) {
  Value l = Value::List({Value::Integer(3), Value::Integer(1),
                         Value::Integer(3)});
  EXPECT_EQ(l.ToString(), "[3,1,3]");
  EXPECT_TRUE(l.Contains(Value::Integer(3)));
  EXPECT_NE(l, Value::List({Value::Integer(1), Value::Integer(3),
                            Value::Integer(3)}));
}

TEST(ValueTest, RecordsSortByNameAndRejectDuplicates) {
  Value r = Value::Record({{"b", Value::Integer(2)},
                           {"a", Value::Integer(1)}})
                .value();
  EXPECT_EQ(r.ToString(), "(a:1,b:2)");
  EXPECT_EQ(*r.FieldValue("a"), Value::Integer(1));
  EXPECT_EQ(r.FieldValue("zzz"), nullptr);
  EXPECT_FALSE(
      Value::Record({{"a", Value::Integer(1)}, {"a", Value::Integer(2)}})
          .ok());
}

TEST(ValueTest, CompareIsTotalOrderOnSamples) {
  std::vector<Value> samples = {
      Value::Null(),
      Value::Integer(-5),
      Value::Integer(7),
      Value::Real(2.5),
      Value::Bool(false),
      Value::Char('q'),
      Value::String("abc"),
      Value::String("abd"),
      Value::Time(9),
      Value::OfOid(Oid{3}),
      Value::Set({Value::Integer(1)}),
      Value::Set({Value::Integer(1), Value::Integer(2)}),
      Value::List({Value::Integer(1)}),
      Value::Record({{"a", Value::Integer(1)}}).value(),
      Value::Temporal(
          TemporalFunction::Constant(Interval(1, 5), Value::Integer(3))),
  };
  for (const Value& a : samples) {
    EXPECT_EQ(Value::Compare(a, a), 0) << a.ToString();
    for (const Value& b : samples) {
      // Antisymmetry.
      EXPECT_EQ(Value::Compare(a, b), -Value::Compare(b, a))
          << a.ToString() << " vs " << b.ToString();
      for (const Value& c : samples) {
        // Transitivity on <=.
        if (Value::Compare(a, b) <= 0 && Value::Compare(b, c) <= 0) {
          EXPECT_LE(Value::Compare(a, c), 0)
              << a.ToString() << " " << b.ToString() << " " << c.ToString();
        }
      }
    }
  }
}

TEST(ValueTest, CollectOids) {
  Value v = Value::Record(
                {{"plain", Value::OfOid(Oid{1})},
                 {"nested", Value::Set({Value::OfOid(Oid{2}),
                                        Value::Integer(5)})},
                 {"hist",
                  Value::Temporal(TemporalFunction::Constant(
                      Interval(1, 10), Value::OfOid(Oid{3})))}})
                .value();
  std::vector<Oid> all;
  v.CollectOids(&all);
  EXPECT_EQ(all.size(), 3u);
  // At-instant collection only sees temporal segments containing the
  // instant.
  std::vector<Oid> at_20;
  v.CollectOidsAt(20, &at_20);
  EXPECT_EQ(at_20.size(), 2u);  // oid 3's segment [1,10] excluded
}

TEST(ValueTest, PrinterMatchesPaperNotation) {
  TemporalFunction score;
  ASSERT_TRUE(score.Define(Interval(1, 100), Value::Integer(40)).ok());
  ASSERT_TRUE(score.Define(Interval(101, 200), Value::Integer(70)).ok());
  Value rec = Value::Record({{"name", Value::String("Bob")},
                             {"score", Value::Temporal(score)}})
                  .value();
  EXPECT_EQ(rec.ToString(),
            "(name:'Bob',score:{<[1,100],40>,<[101,200],70>})");
}

class ValueRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ValueRoundTripTest, ParsePrintParse) {
  Result<Value> v = ParseValue(GetParam());
  ASSERT_TRUE(v.ok()) << GetParam() << ": " << v.status();
  Result<Value> again = ParseValue(v->ToString());
  ASSERT_TRUE(again.ok()) << v->ToString();
  EXPECT_EQ(*again, *v);
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, ValueRoundTripTest,
    ::testing::Values(
        "null", "true", "false", "42", "-17", "3.5", "-2.5e3", "'IDEA'",
        "'escaped \\' quote'", "c'x'", "t42", "tnow", "i7", "{1,2,3}",
        "{}", "[1,1,2]", "[]", "(a:1,b:'x')", "()",
        "{<[5,10],12>,<[11,30],5>}", "{<[20,now],'IDEA'>}",
        "(name:'Bob',score:{<[1,100],40>,<[101,200],70>})",
        "{{1,2},{3}}", "[(a:{i1,i2}),(a:{})]",
        "{<[1,5],{i1,i2}>,<[6,now],{i1}>}"));

TEST(ValueParserTest, HintDisambiguatesEmptyBraces) {
  const Type* temporal_int = types::Temporal(types::Integer()).value();
  Value as_temporal = ParseValue("{}", temporal_int).value();
  EXPECT_EQ(as_temporal.kind(), ValueKind::kTemporal);
  Value as_set = ParseValue("{}").value();
  EXPECT_EQ(as_set.kind(), ValueKind::kSet);
}

TEST(ValueParserTest, RejectsMalformedValues) {
  for (const char* bad :
       {"", "{1,", "(a:)", "<[1,2],3>", "{<[1,2]>}", "'unterminated",
        "c'xy'", "(:1)", "1 2"}) {
    EXPECT_FALSE(ParseValue(bad).ok()) << bad;
  }
  // Empty intervals inside a temporal literal are dropped, not an error.
  EXPECT_EQ(ParseValue("{<[5,3],1>,<[4,9],2>}").value().ToString(),
            "{<[4,9],2>}");
  // Overlapping segments are a temporal error.
  EXPECT_FALSE(ParseValue("{<[1,5],1>,<[3,9],2>}").ok());
}

TEST(ValueTest, ApproxBytesGrowsWithContent) {
  Value small = Value::Integer(1);
  Value big = Value::Set({Value::String(std::string(100, 'x')),
                          Value::String(std::string(200, 'y'))});
  EXPECT_GT(big.ApproxBytes(), small.ApproxBytes() + 250);
}

}  // namespace
}  // namespace tchimera
