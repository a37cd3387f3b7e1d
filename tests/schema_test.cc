// Tests for classes (Definition 4.1): derived types, history records,
// extent maintenance, metaclasses, and Rule 6.1 refinement at class
// definition time.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/db/database.h"
#include "core/schema/refinement.h"
#include "core/types/type_registry.h"

namespace tchimera {
namespace {

const Type* TInt() { return types::Integer(); }
const Type* TStr() { return types::String(); }
const Type* TTemp(const Type* t) { return types::Temporal(t).value(); }

TEST(ClassDefTest, KindFollowsCAttributes) {
  // Definition 4.1: a class is historical iff it has a temporal
  // c-attribute — instance attributes do not matter.
  ClassDef static_cls("a", 0, {}, {{"x", TTemp(TInt())}}, {},
                      {{"count", TInt()}}, {});
  EXPECT_EQ(static_cls.kind(), ClassKind::kStatic);
  ClassDef historical_cls("b", 0, {}, {{"x", TInt()}}, {},
                          {{"count", TTemp(TInt())}}, {});
  EXPECT_EQ(historical_cls.kind(), ClassKind::kHistorical);
}

TEST(ClassDefTest, DerivedTypes) {
  ClassDef cls("c", 0, {},
               {{"name", TTemp(TStr())},
                {"objective", TStr()},
                {"score", TTemp(TInt())}},
               {}, {}, {});
  EXPECT_EQ(cls.StructuralType()->ToString(),
            "record-of(name:temporal(string),objective:string,"
            "score:temporal(integer))");
  EXPECT_EQ(cls.HistoricalType()->ToString(),
            "record-of(name:string,score:integer)");
  EXPECT_EQ(cls.StaticType()->ToString(), "record-of(objective:string)");
}

TEST(ClassDefTest, DerivedTypesNullWhenEmpty) {
  // h_type is null for all-static classes, s_type for all-temporal ones
  // (footnote 5 of the paper).
  ClassDef all_static("s", 0, {}, {{"x", TInt()}}, {}, {}, {});
  EXPECT_EQ(all_static.HistoricalType(), nullptr);
  EXPECT_NE(all_static.StaticType(), nullptr);
  ClassDef all_temporal("t", 0, {}, {{"x", TTemp(TInt())}}, {}, {}, {});
  EXPECT_EQ(all_temporal.StaticType(), nullptr);
  EXPECT_NE(all_temporal.HistoricalType(), nullptr);
  ClassDef empty("e", 0, {}, {}, {}, {}, {});
  EXPECT_EQ(empty.StructuralType(), nullptr);
}

TEST(ClassDefTest, ExtentMaintenance) {
  ClassDef cls("c", 0, {}, {}, {}, {}, {});
  ASSERT_TRUE(cls.AddMember(Oid{1}, 5).ok());
  ASSERT_TRUE(cls.AddMember(Oid{2}, 10).ok());
  EXPECT_FALSE(cls.InExtentAt(Oid{1}, 4));
  EXPECT_TRUE(cls.InExtentAt(Oid{1}, 5));
  EXPECT_TRUE(cls.InExtentAt(Oid{1}, 100));
  EXPECT_FALSE(cls.InExtentAt(Oid{2}, 9));
  EXPECT_TRUE(cls.InExtentAt(Oid{2}, 10));
  ASSERT_TRUE(cls.RemoveMember(Oid{1}, 20).ok());
  EXPECT_TRUE(cls.InExtentAt(Oid{1}, 19));
  EXPECT_FALSE(cls.InExtentAt(Oid{1}, 20));
  // Member intervals reflect the whole story.
  EXPECT_EQ(cls.MemberIntervals(Oid{1}, 100).ToString(), "{[5,19]}");
  EXPECT_EQ(cls.RawMemberIntervals(Oid{2}).ToString(), "{[10,now]}");
  // Re-adding later gives a non-contiguous membership (fire/rehire).
  ASSERT_TRUE(cls.AddMember(Oid{1}, 30).ok());
  EXPECT_EQ(cls.MemberIntervals(Oid{1}, 100).ToString(), "{[5,19],[30,100]}");
}

TEST(ClassDefTest, RetroactiveMembershipPreservesLaterHistory) {
  ClassDef cls("c", 0, {}, {}, {}, {}, {});
  ASSERT_TRUE(cls.AddMember(Oid{1}, 10).ok());
  ASSERT_TRUE(cls.RemoveMember(Oid{1}, 20).ok());
  // Retroactively add a different member from t=5: must not clobber the
  // removal of Oid{1} at 20.
  ASSERT_TRUE(cls.AddMember(Oid{2}, 5).ok());
  EXPECT_TRUE(cls.InExtentAt(Oid{2}, 5));
  EXPECT_TRUE(cls.InExtentAt(Oid{2}, 50));
  EXPECT_TRUE(cls.InExtentAt(Oid{1}, 15));
  EXPECT_FALSE(cls.InExtentAt(Oid{1}, 25));
}

TEST(ClassDefTest, HistoryRecordShape) {
  ClassDef cls("c", 7, {}, {}, {}, {{"avg", TInt()}}, {});
  ASSERT_TRUE(cls.SetCAttribute("avg", Value::Integer(20), 7).ok());
  ASSERT_TRUE(cls.AddMember(Oid{1}, 7).ok());
  ASSERT_TRUE(cls.AddInstance(Oid{1}, 7).ok());
  Value history = cls.History();
  EXPECT_EQ(*history.FieldValue("avg"), Value::Integer(20));
  EXPECT_EQ(history.FieldValue("ext")->kind(), ValueKind::kTemporal);
  EXPECT_EQ(history.FieldValue("proper-ext")->kind(), ValueKind::kTemporal);
  // PE(t) subset of E(t) by construction.
  EXPECT_TRUE(cls.InExtentAt(Oid{1}, 7));
  EXPECT_TRUE(cls.InProperExtentAt(Oid{1}, 7));
}

TEST(ClassDefTest, TemporalCAttributeKeepsHistory) {
  ClassDef cls("c", 0, {}, {}, {}, {{"avg", TTemp(TInt())}}, {});
  ASSERT_TRUE(cls.SetCAttribute("avg", Value::Integer(10), 5).ok());
  ASSERT_TRUE(cls.SetCAttribute("avg", Value::Integer(30), 9).ok());
  Value v = cls.CAttributeValue("avg").value();
  ASSERT_EQ(v.kind(), ValueKind::kTemporal);
  EXPECT_EQ(*v.AsTemporal().At(6), Value::Integer(10));
  EXPECT_EQ(*v.AsTemporal().At(9), Value::Integer(30));
  EXPECT_FALSE(cls.CAttributeValue("nope").ok());
}

TEST(ClassDefTest, CloseLifespan) {
  ClassDef cls("c", 3, {}, {}, {}, {}, {});
  ASSERT_TRUE(cls.AddMember(Oid{1}, 5).ok());
  EXPECT_TRUE(cls.alive());
  ASSERT_TRUE(cls.CloseLifespan(9).ok());
  EXPECT_FALSE(cls.alive());
  EXPECT_EQ(cls.lifespan(), Interval(3, 9));
  // Extents are clipped with it.
  EXPECT_TRUE(cls.InExtentAt(Oid{1}, 9));
  EXPECT_FALSE(cls.InExtentAt(Oid{1}, 10));
  // Classes are never recreated (Section 4).
  EXPECT_FALSE(cls.CloseLifespan(12).ok());
}

// --- extent rows against the spliced set-valued function -------------------

// The reference: each extent history stored as one set-valued temporal
// function, spliced per membership change. These two functions are the
// set-splice implementation that the membership rows replaced, kept
// verbatim as the oracle.
Status RefUpdateOidSet(TemporalFunction* f, Oid oid, TimePoint t, bool add) {
  Value needle = Value::OfOid(oid);
  if (!f->empty()) {
    const auto& last = f->segments().back();
    if (last.interval.is_ongoing() && last.interval.start() <= t) {
      std::vector<Value> elems;
      if (last.value.kind() == ValueKind::kSet) {
        elems = last.value.Elements();
      }
      auto it = std::find(elems.begin(), elems.end(), needle);
      if (add == (it != elems.end())) return Status::OK();  // no change
      if (add) {
        elems.push_back(needle);
      } else {
        elems.erase(it);
      }
      return f->AssertFrom(t, Value::Set(std::move(elems)));
    }
  } else if (add) {
    return f->AssertFrom(t, Value::Set({needle}));
  }
  std::vector<TemporalFunction::Segment> out;
  TimePoint cursor = t;  // next instant of [t, +inf) not yet produced
  bool tail_done = false;
  for (const auto& seg : f->segments()) {
    const Interval& iv = seg.interval;
    if (iv.end() < t) {
      out.push_back(seg);
      continue;
    }
    if (iv.start() < t) {
      out.push_back({Interval(iv.start(), t - 1), seg.value});
    }
    TimePoint s = std::max(iv.start(), t);
    if (add && cursor < s) {
      out.push_back({Interval(cursor, s - 1), Value::Set({needle})});
    }
    std::vector<Value> elems;
    if (seg.value.kind() == ValueKind::kSet) elems = seg.value.Elements();
    auto it = std::find(elems.begin(), elems.end(), needle);
    if (add && it == elems.end()) elems.push_back(needle);
    if (!add && it != elems.end()) elems.erase(it);
    out.push_back({Interval(s, iv.end()), Value::Set(std::move(elems))});
    if (IsNow(iv.end())) tail_done = true;
    cursor = IsNow(iv.end()) ? kNow : iv.end() + 1;
  }
  if (add && !tail_done) {
    out.push_back({Interval(cursor, kNow), Value::Set({needle})});
  }
  TCH_ASSIGN_OR_RETURN(*f, TemporalFunction::Make(std::move(out)));
  return Status::OK();
}

TemporalFunction RefWithoutOid(const TemporalFunction& f, Oid oid) {
  const Value target = Value::OfOid(oid);
  std::vector<TemporalFunction::Segment> segments;
  for (const TemporalFunction::Segment& seg : f.segments()) {
    std::vector<Value> kept;
    for (const Value& e : seg.value.Elements()) {
      if (!(e == target)) kept.push_back(e);
    }
    if (kept.empty()) continue;  // empty pieces leave the domain entirely
    segments.push_back({seg.interval, Value::Set(std::move(kept))});
  }
  return *TemporalFunction::Make(std::move(segments));
}

std::vector<Oid> RefMembersAt(const TemporalFunction& f, TimePoint t) {
  std::vector<Oid> out;
  const Value* v = f.At(t);
  if (v != nullptr) {
    for (const Value& e : v->Elements()) out.push_back(e.AsOid());
  }
  return out;
}

IntervalSet RefMemberIntervals(const TemporalFunction& f, Oid oid,
                               TimePoint current) {
  std::vector<Interval> out;
  for (const auto& seg : f.segments()) {
    if (seg.value.Contains(Value::OfOid(oid))) {
      out.push_back(seg.interval.Resolve(current));
    }
  }
  return IntervalSet(std::move(out));
}

constexpr uint64_t kOracleOids = 10;

// Per-instant membership over [0, horizon], and member intervals at
// `clock`; with `whole`, also the paper values ext() / proper_ext().
void ExpectMatchesReference(const ClassDef& cls, const TemporalFunction& ext,
                            const TemporalFunction& pext, TimePoint clock,
                            TimePoint horizon, bool whole) {
  if (whole) {
    ASSERT_EQ(cls.ext().ToString(), ext.ToString());
    ASSERT_EQ(cls.proper_ext().ToString(), pext.ToString());
  }
  for (TimePoint t = 0; t <= horizon; ++t) {
    ASSERT_EQ(cls.ExtentAt(t), RefMembersAt(ext, t)) << "t=" << t;
    ASSERT_EQ(cls.ProperExtentAt(t), RefMembersAt(pext, t)) << "t=" << t;
    for (uint64_t id = 1; id <= kOracleOids; ++id) {
      const Oid oid{id};
      const auto in = [&](const TemporalFunction& f) {
        const std::vector<Oid> m = RefMembersAt(f, t);
        return std::find(m.begin(), m.end(), oid) != m.end();
      };
      ASSERT_EQ(cls.InExtentAt(oid, t), in(ext)) << oid.ToString() << t;
      ASSERT_EQ(cls.InProperExtentAt(oid, t), in(pext))
          << oid.ToString() << t;
    }
  }
  for (uint64_t id = 1; id <= kOracleOids; ++id) {
    ASSERT_EQ(cls.MemberIntervals(Oid{id}, clock).ToString(),
              RefMemberIntervals(ext, Oid{id}, clock).ToString());
  }
}

TEST(ExtentRowsOracleTest, RowsMatchTheSplicedSetFunction) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    ClassDef cls("c", 0, {}, {}, {}, {}, {});
    TemporalFunction ext;
    TemporalFunction pext;
    TimePoint clock = 0;
    TimePoint last_t = 0;
    TimePoint max_t = 0;
    bool scrubbed = false;
    for (int step = 0; step < 160; ++step) {
      if (rng() % 3 == 0) clock += 1 + static_cast<TimePoint>(rng() % 3);
      const Oid oid{1 + rng() % kOracleOids};
      // Mostly the clock; else the previous instant (add/remove at one
      // instant), a retroactive instant, or clock+1 (a delete's removal).
      TimePoint t = clock;
      switch (rng() % 6) {
        case 0:
        case 1:
          t = std::min(last_t, clock);
          break;
        case 2:
          t = std::max<TimePoint>(0, clock - 1 -
                                         static_cast<TimePoint>(rng() % 12));
          break;
        case 3:
          t = clock + 1;
          break;
        default:
          break;
      }
      last_t = t;
      max_t = std::max(max_t, t);
      const uint64_t op = rng() % (step >= 110 ? 9 : 8);
      switch (op) {
        case 0:
        case 1:
          ASSERT_TRUE(cls.AddMember(oid, t).ok());
          ASSERT_TRUE(RefUpdateOidSet(&ext, oid, t, true).ok());
          break;
        case 2:
        case 3:
          ASSERT_TRUE(cls.AddInstance(oid, t).ok());
          ASSERT_TRUE(RefUpdateOidSet(&pext, oid, t, true).ok());
          break;
        case 4:
        case 5:
          ASSERT_TRUE(cls.RemoveMember(oid, t).ok());
          ASSERT_TRUE(RefUpdateOidSet(&ext, oid, t, false).ok());
          break;
        case 6:
        case 7:
          ASSERT_TRUE(cls.RemoveInstance(oid, t).ok());
          ASSERT_TRUE(RefUpdateOidSet(&pext, oid, t, false).ok());
          break;
        default:
          // Recovery surgery: the rows keep the domain contiguous where
          // the function dropped emptied pieces, so from here on only
          // membership is compared.
          cls.ScrubFromExtents(oid);
          ext = RefWithoutOid(ext, oid);
          pext = RefWithoutOid(pext, oid);
          scrubbed = true;
          break;
      }
      ExpectMatchesReference(cls, ext, pext, std::max(clock, max_t),
                             max_t + 3, !scrubbed);
      if (HasFatalFailure()) return;
    }
    // Class deletion at or after every change, as DropClass does it.
    const TimePoint close = max_t + static_cast<TimePoint>(rng() % 3);
    ASSERT_TRUE(cls.CloseLifespan(close).ok());
    ext.CloseAt(close);
    pext.CloseAt(close);
    ExpectMatchesReference(cls, ext, pext, close + 3, close + 3, !scrubbed);
  }
}

// Thousands of members that come and go, created in oid order so the
// departed ones fill whole 512-row chunks whose rows all end early:
// ExtentAt skips those chunks by their latest end and must still agree
// with the reference function at every instant, before and after the
// class closes.
TEST(ExtentRowsOracleTest, ExtentAtSkipsEndedChunksLikeTheReference) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    ClassDef cls("c", 0, {}, {}, {}, {}, {});
    TemporalFunction ext;
    TemporalFunction pext;
    constexpr uint64_t kMembers = 2000;
    TimePoint t = 0;
    for (uint64_t id = 1; id <= kMembers; ++id) {
      if (rng() % 8 == 0) ++t;
      const Oid oid{id};
      ASSERT_TRUE(cls.AddMember(oid, t).ok());
      ASSERT_TRUE(RefUpdateOidSet(&ext, oid, t, true).ok());
      ASSERT_TRUE(cls.AddInstance(oid, t).ok());
      ASSERT_TRUE(RefUpdateOidSet(&pext, oid, t, true).ok());
      // All leave again, at once or a few instants later, except a few
      // of the later half: the rows of the earlier half fill chunks that
      // ExtentAt skips at every later instant.
      if (id > kMembers / 2 && rng() % 50 == 0) continue;
      const TimePoint gone = t + static_cast<TimePoint>(rng() % 4);
      ASSERT_TRUE(cls.RemoveMember(oid, gone).ok());
      ASSERT_TRUE(RefUpdateOidSet(&ext, oid, gone, false).ok());
      ASSERT_TRUE(cls.RemoveInstance(oid, gone).ok());
      ASSERT_TRUE(RefUpdateOidSet(&pext, oid, gone, false).ok());
    }
    // Some early members come back, so an old chunk holds a live row.
    for (int k = 0; k < 3; ++k) {
      const Oid oid{1 + rng() % (kMembers / 4)};
      ASSERT_TRUE(cls.AddMember(oid, t + 1).ok());
      ASSERT_TRUE(RefUpdateOidSet(&ext, oid, t + 1, true).ok());
    }
    const TimePoint horizon = t + 6;
    for (TimePoint at = 0; at <= horizon; ++at) {
      ASSERT_EQ(cls.ExtentAt(at), RefMembersAt(ext, at)) << "t=" << at;
      ASSERT_EQ(cls.ProperExtentAt(at), RefMembersAt(pext, at)) << "t=" << at;
    }
    ASSERT_TRUE(cls.CloseLifespan(t + 2).ok());
    ext.CloseAt(t + 2);
    pext.CloseAt(t + 2);
    for (TimePoint at = 0; at <= horizon; ++at) {
      ASSERT_EQ(cls.ExtentAt(at), RefMembersAt(ext, at)) << "t=" << at;
      ASSERT_EQ(cls.ProperExtentAt(at), RefMembersAt(pext, at)) << "t=" << at;
    }
  }
}

// --- Rule 6.1 refinement matrix ------------------------------------------------

class RefinementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(isa_.AddClass("person", {}).ok());
    ASSERT_TRUE(isa_.AddClass("employee", {"person"}).ok());
  }
  Status Check(const Type* inherited, const Type* refined) {
    return CheckAttributeRefinement({"a", inherited}, {"a", refined}, isa_);
  }
  IsaGraph isa_;
};

TEST_F(RefinementTest, IdentityAndSpecialization) {
  EXPECT_TRUE(Check(TInt(), TInt()).ok());
  EXPECT_TRUE(
      Check(types::Object("person"), types::Object("employee")).ok());
  EXPECT_FALSE(
      Check(types::Object("employee"), types::Object("person")).ok());
}

TEST_F(RefinementTest, NonTemporalMayBecomeTemporal) {
  // Rule 6.1 clause 2, the [6]-inspired direction.
  EXPECT_TRUE(Check(TInt(), TTemp(TInt())).ok());
  EXPECT_TRUE(Check(types::Object("person"),
                    TTemp(types::Object("employee")))
                  .ok());
  // ...but never the reverse.
  Status s = Check(TTemp(TInt()), TInt());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
}

TEST_F(RefinementTest, TemporalToTemporalSpecializes) {
  EXPECT_TRUE(Check(TTemp(types::Object("person")),
                    TTemp(types::Object("employee")))
                  .ok());
  EXPECT_FALSE(Check(TTemp(types::Object("employee")),
                     TTemp(types::Object("person")))
                   .ok());
}

TEST_F(RefinementTest, MethodVariance) {
  // Covariant result, contravariant inputs.
  MethodDef inherited{"m",
                      {types::Object("employee")},
                      types::Object("person")};
  MethodDef good{"m", {types::Object("person")},
                 types::Object("employee")};
  EXPECT_TRUE(CheckMethodRefinement(inherited, good, isa_).ok());
  MethodDef bad_input{"m", {types::Object("employee")},
                      types::Object("person")};
  bad_input.inputs = {types::Object("employee")};
  EXPECT_TRUE(CheckMethodRefinement(inherited, bad_input, isa_).ok());
  // Narrowing an input violates contravariance... build a real violation:
  MethodDef narrow{"m", {types::Object("employee")},
                   types::Object("person")};
  MethodDef from_person{"m", {types::Object("person")},
                        types::Object("person")};
  EXPECT_FALSE(CheckMethodRefinement(from_person, narrow, isa_).ok());
  // Generalizing the result violates covariance.
  MethodDef widen{"m", {types::Object("employee")},
                  types::Object("person")};
  MethodDef returns_employee{"m",
                             {types::Object("employee")},
                             types::Object("employee")};
  EXPECT_FALSE(
      CheckMethodRefinement(returns_employee, widen, isa_).ok());
  // Arity must match.
  MethodDef nullary{"m", {}, types::Object("person")};
  EXPECT_FALSE(CheckMethodRefinement(inherited, nullary, isa_).ok());
}

TEST(DatabaseSchemaTest, InheritedMembersAreMerged) {
  Database db;
  ClassSpec person;
  person.name = "person";
  person.attributes = {{"name", TTemp(TStr())}, {"birthyear", TInt()}};
  person.methods = {{"greet", {}, TStr()}};
  ASSERT_TRUE(db.DefineClass(person).ok());
  ClassSpec employee;
  employee.name = "employee";
  employee.superclasses = {"person"};
  employee.attributes = {{"salary", TTemp(TInt())}};
  ASSERT_TRUE(db.DefineClass(employee).ok());
  const ClassDef* cls = db.GetClass("employee");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->attributes().size(), 3u);  // name, birthyear, salary
  EXPECT_NE(cls->FindAttribute("name"), nullptr);
  EXPECT_NE(cls->FindMethod("greet"), nullptr);
  EXPECT_EQ(cls->metaclass(), "m-employee");
}

TEST(DatabaseSchemaTest, RefinementValidatedAtDefineTime) {
  Database db;
  ClassSpec person;
  person.name = "person";
  person.attributes = {{"score", TTemp(TInt())}};
  ASSERT_TRUE(db.DefineClass(person).ok());
  // Attempting to make an inherited temporal attribute static fails.
  ClassSpec bad;
  bad.name = "employee";
  bad.superclasses = {"person"};
  bad.attributes = {{"score", TInt()}};
  Status s = db.DefineClass(bad);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  // The failed definition left no trace.
  EXPECT_EQ(db.GetClass("employee"), nullptr);
  EXPECT_FALSE(db.isa().Contains("employee"));
}

TEST(DatabaseSchemaTest, MultipleInheritanceConflictsMustBeResolved) {
  Database db;
  ClassSpec a;
  a.name = "a";
  a.attributes = {{"x", TInt()}};
  ASSERT_TRUE(db.DefineClass(a).ok());
  ClassSpec b;
  b.name = "b";
  b.attributes = {{"x", TStr()}};
  ASSERT_TRUE(db.DefineClass(b).ok());
  ClassSpec both;
  both.name = "both";
  both.superclasses = {"a", "b"};
  EXPECT_FALSE(db.DefineClass(both).ok());
  // Redeclaring the conflicting member would need a common subtype of
  // integer and string — impossible here, so only agreeing supers work.
  ClassSpec c;
  c.name = "c";
  c.attributes = {{"x", TInt()}};
  c.superclasses = {"a"};
  EXPECT_TRUE(db.DefineClass(c).ok());
}

TEST(DatabaseSchemaTest, SpecValidation) {
  Database db;
  ClassSpec bad_name;
  bad_name.name = "9bad";
  EXPECT_FALSE(db.DefineClass(bad_name).ok());
  ClassSpec reserved;
  reserved.name = "c";
  reserved.c_attributes = {{"ext", TInt()}};
  EXPECT_FALSE(db.DefineClass(reserved).ok());
  ClassSpec any_attr;
  any_attr.name = "c";
  any_attr.attributes = {{"x", types::SetOf(types::Any())}};
  Status s = db.DefineClass(any_attr);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  ClassSpec dangling;
  dangling.name = "c";
  dangling.superclasses = {"ghost"};
  EXPECT_FALSE(db.DefineClass(dangling).ok());
  ClassSpec dup;
  dup.name = "c";
  ASSERT_TRUE(db.DefineClass(dup).ok());
  EXPECT_FALSE(db.DefineClass(dup).ok());
}

TEST(DatabaseSchemaTest, DropClassRules) {
  Database db;
  ClassSpec person;
  person.name = "person";
  ASSERT_TRUE(db.DefineClass(person).ok());
  ClassSpec employee;
  employee.name = "employee";
  employee.superclasses = {"person"};
  ASSERT_TRUE(db.DefineClass(employee).ok());
  // A class with a live subclass cannot be dropped.
  EXPECT_FALSE(db.DropClass("person").ok());
  // A class with members cannot be dropped.
  Oid e = db.CreateObject("employee").value();
  EXPECT_FALSE(db.DropClass("employee").ok());
  db.Tick();
  ASSERT_TRUE(db.DeleteObject(e).ok());
  db.Tick();
  EXPECT_TRUE(db.DropClass("employee").ok());
  EXPECT_FALSE(db.GetClass("employee")->alive());
  EXPECT_FALSE(db.DropClass("employee").ok());  // already deleted
  EXPECT_TRUE(db.DropClass("person").ok());
  EXPECT_FALSE(db.DropClass("ghost").ok());
}

}  // namespace
}  // namespace tchimera
