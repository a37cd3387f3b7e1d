// Tests for the chunked copy-on-write temporal index (core/db/index.h):
//
//   (a) every ProbeOp's posting range equals a linear scan, on partitions
//       whose equal-value runs and null-valued prefix straddle chunk
//       boundaries — bulk-built (full chunks) and grown by inserts and
//       erases (split, half-full and dropped chunks) — and on an index
//       view grown by per-oid deltas whose delta folds into its base;
//   (b) a seeded differential of a few thousand writes through the
//       optimistic and the exclusive commit paths: after every commit the
//       head's indexes dump exactly like a from-scratch rebuild, and the
//       delta stays within its bound and is merged into the base;
//   (c) copy-on-write isolation: snapshots pinned before many later
//       commits still dump exactly what they dumped when pinned;
//   and a mutation that fails after touching its slot stays consistent
//   across index DDL.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/db/database.h"
#include "core/db/index.h"
#include "core/db/versioned_db.h"
#include "core/object/object.h"
#include "core/values/temporal_function.h"
#include "core/values/value.h"
#include "query/interpreter.h"
#include "storage/deserializer.h"
#include "storage/serializer.h"

namespace tchimera {
namespace {

constexpr ProbeOp kAllOps[] = {ProbeOp::kEq, ProbeOp::kLt, ProbeOp::kLe,
                               ProbeOp::kGt, ProbeOp::kGe};

// What the scalar kernels make of `value op bound`: a null attribute
// never satisfies a comparison.
bool Satisfies(const Value& value, ProbeOp op, const Value& bound) {
  if (value.is_null()) return false;
  const int c = Value::Compare(value, bound);
  switch (op) {
    case ProbeOp::kEq:
      return c == 0;
    case ProbeOp::kLt:
      return c < 0;
    case ProbeOp::kLe:
      return c <= 0;
    case ProbeOp::kGt:
      return c > 0;
    case ProbeOp::kGe:
      return c >= 0;
  }
  return false;
}

std::string Render(const IndexEntry& e) {
  return e.value.ToString() + " " + e.valid.ToString() + " " +
         e.oid.ToString();
}

std::vector<std::string> Flatten(const IndexPartition& part,
                                 const PostingRange& range) {
  std::vector<std::string> out;
  part.ForEach(range, [&](const IndexEntry& e) { out.push_back(Render(e)); });
  return out;
}

// Checks every op against every bound on `part`: the probe's range is
// exactly the scan's matches, and Count agrees with it.
void ExpectProbesMatchScan(const IndexPartition& part,
                           const std::vector<Value>& bounds) {
  std::vector<IndexEntry> all;
  part.ForEach(part.All(), [&](const IndexEntry& e) { all.push_back(e); });
  ASSERT_EQ(all.size(), part.size());
  ASSERT_TRUE(std::is_sorted(all.begin(), all.end(), IndexEntryLess));
  for (const Value& bound : bounds) {
    for (ProbeOp op : kAllOps) {
      std::vector<std::string> scan;
      for (const IndexEntry& e : all) {
        if (Satisfies(e.value, op, bound)) scan.push_back(Render(e));
      }
      const PostingRange range = ProbeRange(part, op, bound);
      EXPECT_EQ(Flatten(part, range), scan)
          << "op " << static_cast<int>(op) << " bound " << bound.ToString();
      EXPECT_EQ(part.Count(range), scan.size());
    }
  }
}

// Objects carrying one static attribute `v`, so each contributes exactly
// one posting: a null prefix longer than a chunk, then equal-value runs
// of varying length (some longer than a chunk), then strings (a higher
// kind rank than integers).
std::vector<std::unique_ptr<Object>> RunObjects() {
  std::vector<Value> values;
  for (size_t i = 0; i < kPostingChunkCapacity + 6; ++i) {
    values.push_back(Value::Null());
  }
  for (int k = 0; k < 24; ++k) {
    const int run = 1 + (k * 37) % (2 * kPostingChunkCapacity);
    for (int r = 0; r < run; ++r) values.push_back(Value::Integer(k * 10));
  }
  for (int k = 0; k < 5; ++k) {
    for (int r = 0; r < 9; ++r) {
      values.push_back(Value::String(std::string(1, 'a' + k)));
    }
  }
  std::vector<std::unique_ptr<Object>> objects;
  uint64_t id = 1;
  for (Value& v : values) {
    auto obj = std::make_unique<Object>(Oid{id++}, "c", 0);
    obj->SetAttribute("v", std::move(v));
    objects.push_back(std::move(obj));
  }
  return objects;
}

std::vector<Value> ProbeBounds() {
  std::vector<Value> bounds = {Value::Integer(-1), Value::Integer(1000),
                               Value::String("a"), Value::String("c"),
                               Value::String("zz"), Value::Real(55.5),
                               Value::Bool(true)};
  for (int k = 0; k < 24; ++k) {
    bounds.push_back(Value::Integer(k * 10));
    bounds.push_back(Value::Integer(k * 10 + 5));
  }
  return bounds;
}

const IndexDef kRunDef{"iv", IndexKind::kValue, "c", "v"};

TEST(IndexPartitionTest, BulkBuildProbesMatchLinearScan) {
  std::vector<std::unique_ptr<Object>> objects = RunObjects();
  std::vector<const Object*> raw;
  for (const auto& obj : objects) raw.push_back(obj.get());
  std::shuffle(raw.begin(), raw.end(), std::mt19937_64(7));
  const IndexPartition part = IndexPartition::Build(kRunDef, raw);
  // Full chunks: the null prefix and several runs straddle boundaries.
  EXPECT_EQ(part.chunk_count(),
            (raw.size() + kPostingChunkCapacity - 1) / kPostingChunkCapacity);
  ExpectProbesMatchScan(part, ProbeBounds());
}

// The postings of RunObjects in a shuffled order: one value posting per
// object, as a bulk build makes them.
std::vector<IndexEntry> ShuffledRunPostings(
    const std::vector<const Object*>& raw, uint64_t seed) {
  const IndexPartition built = IndexPartition::Build(kRunDef, raw);
  std::vector<IndexEntry> postings;
  built.ForEach(built.All(),
                [&](const IndexEntry& e) { postings.push_back(e); });
  std::shuffle(postings.begin(), postings.end(), std::mt19937_64(seed));
  return postings;
}

// Erases a whole block of runs (their chunks empty) and three in four of
// the other postings (their chunks thin out); returns the kept objects.
template <typename EraseFn>
std::vector<const Object*> EraseMost(const std::vector<const Object*>& raw,
                                     EraseFn&& erase) {
  std::vector<const Object*> kept;
  for (size_t i = 0; i < raw.size(); ++i) {
    const Value& v = *raw[i]->Attribute("v");
    const bool in_block = v.kind() == ValueKind::kInteger &&
                          v.AsInteger() >= 50 && v.AsInteger() < 150;
    if (!in_block && i % 4 == 0) {
      kept.push_back(raw[i]);
      continue;
    }
    erase(raw[i]);
  }
  return kept;
}

TEST(IndexPartitionTest, InsertEraseGrownProbesMatchLinearScanAndBulkBuild) {
  std::vector<std::unique_ptr<Object>> objects = RunObjects();
  std::vector<const Object*> raw;
  for (const auto& obj : objects) raw.push_back(obj.get());
  IndexPartition grown;
  for (IndexEntry& e : ShuffledRunPostings(raw, 11)) {
    grown.Insert(std::move(e));
  }
  // Random-order inserts split chunks, leaving them between half and
  // fully occupied.
  EXPECT_GT(grown.chunk_count(),
            (raw.size() + kPostingChunkCapacity - 1) / kPostingChunkCapacity);
  const IndexPartition built = IndexPartition::Build(kRunDef, raw);
  EXPECT_EQ(Flatten(grown, grown.All()), Flatten(built, built.All()));
  ExpectProbesMatchScan(grown, ProbeBounds());

  const size_t chunks_before = grown.chunk_count();
  std::shuffle(raw.begin(), raw.end(), std::mt19937_64(13));
  const std::vector<const Object*> kept =
      EraseMost(raw, [&](const Object* obj) {
        grown.Erase(IndexEntry{*obj->Attribute("v"),
                               Interval::FromUntilNow(0), obj->id()});
      });
  EXPECT_LT(grown.chunk_count(), chunks_before);
  const IndexPartition rebuilt = IndexPartition::Build(kRunDef, kept);
  EXPECT_EQ(Flatten(grown, grown.All()), Flatten(rebuilt, rebuilt.All()));
  ExpectProbesMatchScan(grown, ProbeBounds());
}

std::vector<std::string> Flatten(const IndexPostings& postings) {
  std::vector<std::string> out;
  postings.ForEach([&](const IndexEntry& e) { out.push_back(Render(e)); });
  return out;
}

// Checks every op against every bound on the view of `postings`: the
// probe's matches are exactly the scan's, and CountMatches agrees.
void ExpectProbesMatchScan(const IndexPostings& postings,
                           const std::vector<Value>& bounds) {
  std::vector<IndexEntry> all;
  postings.ForEach([&](const IndexEntry& e) { all.push_back(e); });
  ASSERT_EQ(all.size(), postings.size());
  ASSERT_TRUE(std::is_sorted(all.begin(), all.end(), IndexEntryLess));
  for (const Value& bound : bounds) {
    for (ProbeOp op : kAllOps) {
      std::vector<std::string> scan;
      for (const IndexEntry& e : all) {
        if (Satisfies(e.value, op, bound)) scan.push_back(Render(e));
      }
      std::vector<std::string> probed;
      postings.ForEachMatch(
          op, bound, [&](const IndexEntry& e) { probed.push_back(Render(e)); });
      std::sort(scan.begin(), scan.end());
      std::sort(probed.begin(), probed.end());
      EXPECT_EQ(probed, scan)
          << "op " << static_cast<int>(op) << " bound " << bound.ToString();
      EXPECT_EQ(postings.CountMatches(op, bound), scan.size());
    }
  }
}

TEST(IndexPartitionTest, DeltaGrownProbesMatchLinearScanAndBulkBuild) {
  std::vector<std::unique_ptr<Object>> objects = RunObjects();
  std::vector<const Object*> raw;
  for (const auto& obj : objects) raw.push_back(obj.get());
  std::shuffle(raw.begin(), raw.end(), std::mt19937_64(11));
  const IndexedFacts absent;
  IndexPostings grown;
  for (const Object* obj : raw) {
    grown.ApplyDelta(obj->id(), absent, CaptureIndexedFacts(kRunDef, obj));
    ASSERT_LE(grown.delta_size(), kIndexDeltaBound);
  }
  // The delta passed its bound and was folded into the base.
  EXPECT_GT(grown.base().size(), raw.size() / 2);
  const IndexPartition built = IndexPartition::Build(kRunDef, raw);
  EXPECT_EQ(Flatten(grown), Flatten(built, built.All()));
  ExpectProbesMatchScan(grown, ProbeBounds());

  const size_t base_before = grown.base().size();
  std::shuffle(raw.begin(), raw.end(), std::mt19937_64(13));
  const std::vector<const Object*> kept =
      EraseMost(raw, [&](const Object* obj) {
        grown.ApplyDelta(obj->id(), CaptureIndexedFacts(kRunDef, obj),
                         absent);
      });
  EXPECT_LT(grown.base().size(), base_before);
  const IndexPartition rebuilt = IndexPartition::Build(kRunDef, kept);
  EXPECT_EQ(Flatten(grown), Flatten(rebuilt, rebuilt.All()));
  ExpectProbesMatchScan(grown, ProbeBounds());
}

TEST(IndexPartitionTest, EmptyPartitionProbesAreEmpty) {
  const IndexPartition part;
  for (ProbeOp op : kAllOps) {
    EXPECT_EQ(part.Count(ProbeRange(part, op, Value::Integer(1))), 0u);
  }
}

// ---------------------------------------------------------------------------
// The differential: seeded writes against a VersionedDatabase, checked
// against a serializer round trip (v4 snapshots persist index definitions
// only, so the load rebuilds every index from the objects).

std::string RebuiltIndexDump(const Database& db) {
  Result<std::string> text = SaveDatabaseToString(db);
  EXPECT_TRUE(text.ok()) << text.status();
  if (!text.ok()) return "<save failed>";
  Result<std::unique_ptr<Database>> loaded = LoadDatabaseFromString(*text);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  if (!loaded.ok()) return "<load failed>";
  return (*loaded)->DebugDumpIndexes();
}

// The oids `attr`'s value satisfies `op bound` at `t`, by scanning every
// object — IndexProbe's contract (extent filtering is the caller's).
std::vector<Oid> ScanProbe(const Database& db, const std::string& attr,
                           ProbeOp op, const Value& bound, TimePoint t) {
  std::vector<Oid> out;
  for (Oid oid : db.AllOids()) {
    const Value* stored = db.GetObject(oid)->Attribute(attr);
    if (stored == nullptr) continue;
    const Value* at = stored;
    if (stored->kind() == ValueKind::kTemporal) {
      at = stored->AsTemporal().At(t);
      if (at == nullptr) continue;
    }
    if (Satisfies(*at, op, bound)) out.push_back(oid);
  }
  return out;
}

// Schema: a temporal value index (ev), a non-temporal value index whose
// attribute migrations add and drop (eb), and a lifespan index (el, a
// declaration without postings). The indexes exist before any object, so
// every posting is inserted by a delta (no bulk build).
constexpr char kSchema[] =
    "define class emp attributes v: temporal(integer) end\n"
    "define class mgr under emp attributes bonus: integer end\n"
    "create index ev on emp (v)\n"
    "create index eb on mgr (bonus)\n"
    "create index el on emp lifespan";

constexpr uint64_t kPopulation = 64;
constexpr TimePoint kPopulatedAt = 1000;

class IndexWorkload {
 public:
  explicit IndexWorkload(uint64_t seed) : rng_(seed) {}

  // 64 objects; the two "hot" ones (oids 1 and 2, and later every oid
  // congruent to them mod 64) get long histories, so their ev postings
  // span several chunks.
  void Populate(VersionedDatabase* vdb) {
    WriteGuard guard = vdb->BeginWrite();
    Database& db = guard.db();
    Result<std::string> defined = Interpreter(&db).ExecuteScript(kSchema);
    ASSERT_TRUE(defined.ok()) << defined.status();
    ASSERT_TRUE(db.AdvanceTo(kPopulatedAt).ok());
    for (uint64_t i = 1; i <= kPopulation; ++i) {
      const bool manager = i % 3 == 0;
      Database::FieldInits init = {{"v", Value::Integer(Pick(40))}};
      if (manager) init.push_back({"bonus", Value::Integer(Pick(40))});
      Result<Oid> oid = db.CreateObjectAt(manager ? "mgr" : "emp",
                                          100 * Pick(5),
                                          std::move(init));
      ASSERT_TRUE(oid.ok()) << oid.status();
      const int splices = Hot(*oid) ? 60 : 2;
      for (int s = 0; s < splices; ++s) ASSERT_TRUE(Splice(db, *oid, 3).ok());
    }
    guard.Commit();
  }

  // One random write, committed through the optimistic path, the
  // exclusive path, or — as an interleaved pair of disjoint optimistic
  // transactions — with the second adopted onto a head that moved past
  // its base. Calls `after_commit` after every commit.
  template <typename Fn>
  void Step(VersionedDatabase* vdb, Fn&& after_commit) {
    const int path = static_cast<int>(Pick(10));
    if (path < 2) {
      WriteGuard guard = vdb->BeginWrite();
      ASSERT_TRUE(RandomWrite(guard.db()).ok());
      guard.Commit();
      after_commit();
      return;
    }
    if (path < 4) {
      OptimisticTransaction t1 = vdb->BeginTransaction();
      OptimisticTransaction t2 = vdb->BeginTransaction();
      const Oid a = AnyObject(t1.db());
      Oid b = AnyObject(t1.db());
      while (b == a) b = AnyObject(t1.db());
      ASSERT_TRUE(Splice(t1.db(), a, 30).ok());
      ASSERT_TRUE(Splice(t2.db(), b, 30).ok());
      ASSERT_TRUE(vdb->CommitTransaction(&t1).ok());
      after_commit();
      Result<uint64_t> second = vdb->CommitTransaction(&t2);
      ASSERT_TRUE(second.ok()) << second.status();
      after_commit();
      return;
    }
    OptimisticTransaction txn = vdb->BeginTransaction();
    ASSERT_TRUE(RandomWrite(txn.db()).ok());
    Result<uint64_t> committed = vdb->CommitTransaction(&txn);
    ASSERT_TRUE(committed.ok()) << committed.status();
    after_commit();
  }

 private:
  static bool Hot(Oid oid) {
    return oid.id % kPopulation == 1 || oid.id % kPopulation == 2;
  }

  int64_t Pick(int64_t n) {
    return static_cast<int64_t>(rng_() % static_cast<uint64_t>(n));
  }

  Oid AnyObject(const Database& db) {
    const std::vector<Oid> oids = db.AllOids();
    // Half the picks go to the hot objects, which keeps their postings
    // growing (and their chunks splitting) throughout the run.
    if (Pick(2) == 0) {
      std::vector<Oid> hot;
      for (Oid oid : oids) {
        if (Hot(oid)) hot.push_back(oid);
      }
      return hot[Pick(static_cast<int64_t>(hot.size()))];
    }
    return oids[Pick(static_cast<int64_t>(oids.size()))];
  }

  // A live object, optionally of exactly class `cls`; Oid{0} when none.
  Oid LiveObject(const Database& db, const char* cls = nullptr) {
    std::vector<Oid> live;
    for (Oid oid : db.AllOids()) {
      const Object* obj = db.GetObject(oid);
      if (!obj->alive()) continue;
      if (cls != nullptr && obj->CurrentClass() != cls) continue;
      live.push_back(oid);
    }
    if (live.empty()) return Oid{0};
    return live[Pick(static_cast<int64_t>(live.size()))];
  }

  // A retroactive `during [lo, hi]` splice of v inside `oid`'s lifespan.
  Status Splice(Database& db, Oid oid, int64_t max_width) {
    const Interval& ls = db.GetObject(oid)->lifespan();
    const TimePoint last = ls.is_ongoing() ? db.now() : ls.end();
    const TimePoint lo = ls.start() + Pick(last - ls.start() + 1);
    const TimePoint hi = std::min(last, lo + Pick(max_width + 1));
    return db.UpdateAttributeAt(oid, "v", Interval(lo, hi),
                                Value::Integer(Pick(40)));
  }

  Status RandomWrite(Database& db) {
    const int kind = static_cast<int>(Pick(100));
    if (kind < 50) return Splice(db, AnyObject(db), kind < 5 ? 60 : 4);
    if (kind < 70) {
      const Oid oid = LiveObject(db);
      if (oid.id == 0) return Status::OK();
      return db.UpdateAttribute(oid, "v", Value::Integer(Pick(40)));
    }
    if (kind < 91) {
      const Oid oid = LiveObject(db, "mgr");
      if (oid.id == 0) return Status::OK();
      return db.UpdateAttribute(oid, "bonus", Value::Integer(Pick(40)));
    }
    // The rest change class membership or lifespans: give each its own
    // instant so no two land on the same one.
    db.Tick();
    if (kind < 96) {
      const Oid oid = LiveObject(db);
      if (oid.id == 0) return Status::OK();
      if (db.GetObject(oid)->CurrentClass() == "mgr") {
        return db.Migrate(oid, "emp");
      }
      return db.Migrate(oid, "mgr", {{"bonus", Value::Integer(Pick(40))}});
    }
    if (kind < 97) {
      const Oid oid = LiveObject(db);
      if (oid.id == 0 || Hot(oid)) return Status::OK();
      return db.DeleteObject(oid);
    }
    if (kind < 99) {
      const bool manager = Pick(2) == 0;
      Database::FieldInits init = {{"v", Value::Integer(Pick(40))}};
      if (manager) init.push_back({"bonus", Value::Integer(Pick(40))});
      return db.CreateObject(manager ? "mgr" : "emp", std::move(init))
          .status();
    }
    return Status::OK();  // the clock tick alone
  }

  std::mt19937_64 rng_;
};

TEST(IndexDifferentialTest, DeltaMaintenanceMatchesRebuildAfterEveryCommit) {
  VersionedDatabase vdb;
  IndexWorkload workload(20261017);
  workload.Populate(&vdb);
  ASSERT_FALSE(HasFailure());
  {
    ReadSnapshot snap = vdb.OpenSnapshot();
    ASSERT_EQ(snap.db().DebugDumpIndexes(), RebuiltIndexDump(snap.db()));
  }
  // The previous head stays pinned, so a base at a new address is a
  // merge and not a reused allocation.
  ReadSnapshot previous = vdb.OpenSnapshot();
  int commits = 0;
  int ev_merges = 0;
  auto check = [&] {
    ++commits;
    ReadSnapshot snap = vdb.OpenSnapshot();
    const Database& db = snap.db();
    ASSERT_EQ(db.DebugDumpIndexes(), RebuiltIndexDump(db))
        << "after commit " << commits;
    for (const char* index : {"ev", "eb"}) {
      ASSERT_LE(db.FindIndexPostings(index)->delta_size(), kIndexDeltaBound);
    }
    ev_merges += &db.FindIndexPostings("ev")->base() !=
                 &previous.db().FindIndexPostings("ev")->base();
    previous = std::move(snap);
  };
  while (commits < 2000 && !HasFailure()) workload.Step(&vdb, check);
  ASSERT_FALSE(HasFailure());
  // eb holds a posting per manager, so its delta (at most two postings
  // per manager) never reaches a fold: NonTemporalFoldsDropEmptiedChunks
  // folds a non-temporal index.
  EXPECT_GT(ev_merges, 0);

  ReadSnapshot snap = vdb.OpenSnapshot();
  const Database& db = snap.db();
  for (const auto& [index, attr] :
       {std::pair<const char*, const char*>{"ev", "v"}, {"eb", "bonus"}}) {
    for (TimePoint t : {TimePoint{0}, kPopulatedAt / 2, kPopulatedAt,
                        db.now(), db.now() + 5}) {
      for (int64_t b : {-1, 0, 7, 20, 39, 40}) {
        for (ProbeOp op : kAllOps) {
          EXPECT_EQ(db.IndexProbe(index, op, Value::Integer(b), t),
                    ScanProbe(db, attr, op, Value::Integer(b), t))
              << index << " op " << static_cast<int>(op) << " bound " << b
              << " at " << t;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The base/delta split under many merges: seeded writes on a small
// population whose `during` corrections erase whole runs of postings, so
// ev's delta crosses kIndexDeltaBound again and again. After every commit
// every ProbeOp, at past instants, now and now+5, on a temporal (ev) and
// a non-temporal (es) index, equals a scan of the same version. The
// writes re-write oids whose postings are still in the delta, write
// nulls, delete objects, and pair two optimistic writers on disjoint
// oids of one index that must both commit. Snapshots pinned before a
// merge keep probing correctly after it.

constexpr char kDeltaSchema[] =
    "define class emp attributes v: temporal(integer), s: integer end\n"
    "create index ev on emp (v)\n"
    "create index es on emp (s)";

class DeltaWorkload {
 public:
  explicit DeltaWorkload(uint64_t seed) : rng_(seed) {}

  void Populate(VersionedDatabase* vdb) {
    WriteGuard guard = vdb->BeginWrite();
    Database& db = guard.db();
    ASSERT_TRUE(Interpreter(&db).ExecuteScript(kDeltaSchema).ok());
    ASSERT_TRUE(db.AdvanceTo(200).ok());
    for (int i = 0; i < 40; ++i) {
      Result<Oid> oid = db.CreateObjectAt(
          "emp", Pick(50), {{"v", Value()}, {"s", Value()}});
      ASSERT_TRUE(oid.ok()) << oid.status();
      for (int k = 0; k < 30; ++k) ASSERT_TRUE(Splice(db, *oid, 2).ok());
    }
    guard.Commit();
  }

  // One commit (or, for the writer pair, two); calls `after_commit`
  // after each.
  template <typename Fn>
  void Step(VersionedDatabase* vdb, Fn&& after_commit) {
    if (Pick(10) == 0) {
      OptimisticTransaction t1 = vdb->BeginTransaction();
      OptimisticTransaction t2 = vdb->BeginTransaction();
      const Oid a = LiveObject(t1.db());
      Oid b = LiveObject(t1.db());
      while (b == a) b = LiveObject(t1.db());
      ASSERT_TRUE(Splice(t1.db(), a, 20).ok());
      ASSERT_TRUE(Splice(t2.db(), b, 20).ok());
      ASSERT_TRUE(vdb->CommitTransaction(&t1).ok());
      after_commit();
      Result<uint64_t> second = vdb->CommitTransaction(&t2);
      ASSERT_TRUE(second.ok()) << second.status();
      after_commit();
      return;
    }
    OptimisticTransaction txn = vdb->BeginTransaction();
    ASSERT_TRUE(RandomWrite(txn.db()).ok());
    Result<uint64_t> committed = vdb->CommitTransaction(&txn);
    ASSERT_TRUE(committed.ok()) << committed.status();
    after_commit();
  }

 private:
  int64_t Pick(int64_t n) {
    return static_cast<int64_t>(rng_() % static_cast<uint64_t>(n));
  }

  // A small value, or null one time in eight.
  Value AnyValue() {
    return Pick(8) == 0 ? Value() : Value::Integer(Pick(24));
  }

  // A live object; the last one written, a third of the time, so its
  // postings are often still in the delta.
  Oid LiveObject(const Database& db) {
    if (Pick(3) == 0 && db.GetObject(last_)->alive()) return last_;
    std::vector<Oid> live;
    for (Oid oid : db.AllOids()) {
      if (db.GetObject(oid)->alive()) live.push_back(oid);
    }
    last_ = live[Pick(static_cast<int64_t>(live.size()))];
    return last_;
  }

  // A `during [lo, hi]` correction of v inside `oid`'s lifespan: a wide
  // one replaces a run of segments by one.
  Status Splice(Database& db, Oid oid, int64_t max_width) {
    const Interval& ls = db.GetObject(oid)->lifespan();
    const TimePoint last = ls.is_ongoing() ? db.now() : ls.end();
    const TimePoint lo = ls.start() + Pick(last - ls.start() + 1);
    const TimePoint hi = std::min(last, lo + Pick(max_width + 1));
    return db.UpdateAttributeAt(oid, "v", Interval(lo, hi), AnyValue());
  }

  Status RandomWrite(Database& db) {
    const int kind = static_cast<int>(Pick(100));
    if (kind < 55) return Splice(db, LiveObject(db), kind < 15 ? 40 : 3);
    if (kind < 70) return db.UpdateAttribute(LiveObject(db), "v", AnyValue());
    if (kind < 85) return db.UpdateAttribute(LiveObject(db), "s", AnyValue());
    db.Tick();
    if (kind < 90) return Status::OK();
    if (kind < 95) {
      // Keep most of the population alive.
      const Oid oid = LiveObject(db);
      if (db.Pi("emp", db.now()).size() < 30) return Status::OK();
      return db.DeleteObject(oid);
    }
    return db.CreateObject("emp", {{"v", AnyValue()}, {"s", AnyValue()}})
        .status();
  }

  std::mt19937_64 rng_;
  Oid last_{1};
};

// Every op and bound at `instants`, on both indexes, against a scan.
void ExpectProbesMatchScans(const Database& db,
                            const std::vector<TimePoint>& instants,
                            const std::string& context) {
  for (const auto& [index, attr] :
       {std::pair<const char*, const char*>{"ev", "v"}, {"es", "s"}}) {
    for (TimePoint t : instants) {
      for (int64_t b : {-1, 7, 23}) {
        for (ProbeOp op : kAllOps) {
          ASSERT_EQ(db.IndexProbe(index, op, Value::Integer(b), t),
                    ScanProbe(db, attr, op, Value::Integer(b), t))
              << context << ": " << index << " op " << static_cast<int>(op)
              << " bound " << b << " at " << t;
        }
      }
    }
  }
}

TEST(IndexDeltaTest, ProbesMatchScansAcrossManyMerges) {
  VersionedDatabase vdb;
  DeltaWorkload workload(20261019);
  workload.Populate(&vdb);
  ASSERT_FALSE(HasFailure());
  ReadSnapshot previous = vdb.OpenSnapshot();
  std::vector<ReadSnapshot> pinned;
  int commits = 0;
  int merges = 0;
  auto check = [&] {
    ++commits;
    ReadSnapshot snap = vdb.OpenSnapshot();
    const Database& db = snap.db();
    ExpectProbesMatchScans(db, {25, 120, db.now(), db.now() + 5},
                           "commit " + std::to_string(commits));
    const IndexPostings& ev = *db.FindIndexPostings("ev");
    ASSERT_LE(ev.delta_size(), kIndexDeltaBound);
    // The previous head is still pinned, so a new base address is a
    // merge.
    const bool merged =
        &ev.base() != &previous.db().FindIndexPostings("ev")->base();
    merges += merged;
    if (merged) {
      ASSERT_EQ(db.DebugDumpIndexes(), RebuiltIndexDump(db))
          << "after the merge at commit " << commits;
      // The version just before this merge stays pinned to the end.
      pinned.push_back(std::move(previous));
    }
    previous = std::move(snap);
  };
  while (merges < 8 && commits < 4000 && !HasFailure()) {
    workload.Step(&vdb, check);
  }
  ASSERT_FALSE(HasFailure());
  EXPECT_GE(merges, 8);
  ReadSnapshot head = vdb.OpenSnapshot();
  EXPECT_EQ(head.db().DebugDumpIndexes(), RebuiltIndexDump(head.db()));
  ASSERT_GE(pinned.size(), 2u);
  for (const ReadSnapshot& snap : pinned) {
    const Database& db = snap.db();
    EXPECT_NE(&db.FindIndexPostings("ev")->base(),
              &head.db().FindIndexPostings("ev")->base());
    ExpectProbesMatchScans(db, {25, 120, db.now(), db.now() + 5},
                           "version " + std::to_string(snap.version()));
    EXPECT_EQ(db.DebugDumpIndexes(), RebuiltIndexDump(db));
  }
}

// A non-temporal index in the database path: managers' bonus postings
// go in through the delta and fold into the base, then migrating every
// manager out of the class erases them all, so folds empty and drop
// whole chunks.
TEST(IndexDeltaTest, NonTemporalFoldsDropEmptiedChunks) {
  Database db;
  ASSERT_TRUE(Interpreter(&db)
                  .ExecuteScript(
                      "define class emp attributes v: integer end\n"
                      "define class mgr under emp attributes bonus: integer "
                      "end\n"
                      "create index eb on mgr (bonus)")
                  .ok());
  std::vector<Oid> managers;
  for (int i = 0; i < 1500; ++i) {
    Result<Oid> oid = db.CreateObject(
        "mgr", {{"v", Value::Integer(i)}, {"bonus", Value::Integer(i % 7)}});
    ASSERT_TRUE(oid.ok()) << oid.status();
    managers.push_back(*oid);
  }
  const IndexPostings& eb = *db.FindIndexPostings("eb");
  EXPECT_GT(eb.base().size(), managers.size() / 2);
  db.Tick();
  int drops = 0;
  for (Oid oid : managers) {
    const size_t chunks = db.FindIndexPostings("eb")->base().chunk_count();
    ASSERT_TRUE(db.Migrate(oid, "emp").ok());
    drops += db.FindIndexPostings("eb")->base().chunk_count() < chunks;
    ASSERT_LE(db.FindIndexPostings("eb")->delta_size(), kIndexDeltaBound);
  }
  EXPECT_GT(drops, 0);
  EXPECT_EQ(db.DebugDumpIndexes(), RebuiltIndexDump(db));
  for (int64_t b : {-1, 0, 3, 6, 7}) {
    for (ProbeOp op : kAllOps) {
      EXPECT_EQ(db.IndexProbe("eb", op, Value::Integer(b), db.now()),
                ScanProbe(db, "bonus", op, Value::Integer(b), db.now()))
          << "op " << static_cast<int>(op) << " bound " << b;
    }
  }
}

TEST(IndexDifferentialTest, FailedMutationStaysConsistentAcrossIndexDdl) {
  Database db;
  ASSERT_TRUE(Interpreter(&db)
                  .ExecuteScript(
                      "define class emp attributes v: temporal(integer) end\n"
                      "define class mgr under emp attributes bonus: integer "
                      "end\n"
                      "create index ev on emp (v)\n"
                      "create emp (v: 1)")
                  .ok());
  // Migrate touches the slot (capturing its indexed facts) and only then
  // rejects the unknown attribute, so the capture outlives the statement
  // and must survive index DDL that changes what a capture holds.
  const Database::FieldInits unknown = {{"nosuch", Value::Integer(1)}};
  EXPECT_FALSE(db.Migrate(Oid{1}, "mgr", unknown).ok());
  ASSERT_TRUE(Interpreter(&db).Execute("create index eb on mgr (bonus)").ok());
  ASSERT_TRUE(db.UpdateAttribute(Oid{1}, "v", Value::Integer(2)).ok());
  EXPECT_EQ(db.DebugDumpIndexes(), RebuiltIndexDump(db));

  EXPECT_FALSE(db.Migrate(Oid{1}, "mgr", unknown).ok());
  ASSERT_TRUE(Interpreter(&db).Execute("drop index ev").ok());
  ASSERT_TRUE(
      db.Migrate(Oid{1}, "mgr", {{"bonus", Value::Integer(7)}}).ok());
  EXPECT_EQ(db.DebugDumpIndexes(), RebuiltIndexDump(db));
}

TEST(IndexDifferentialTest, PinnedSnapshotsKeepTheirIndexes) {
  VersionedDatabase vdb;
  IndexWorkload workload(42);
  workload.Populate(&vdb);
  ASSERT_FALSE(HasFailure());
  std::vector<std::pair<ReadSnapshot, std::string>> pinned;
  int commits = 0;
  auto pin = [&] {
    if (++commits % 50 != 0) return;
    ReadSnapshot snap = vdb.OpenSnapshot();
    std::string dump = snap.db().DebugDumpIndexes();
    pinned.emplace_back(std::move(snap), std::move(dump));
  };
  while (commits < 600 && !HasFailure()) workload.Step(&vdb, pin);
  ASSERT_FALSE(HasFailure());
  ASSERT_GE(pinned.size(), 2u);
  // Later commits rewrote the chunks these versions share with the head;
  // copy-on-write must have left every pinned version's postings alone.
  for (const auto& [snap, dump] : pinned) {
    EXPECT_EQ(snap.db().DebugDumpIndexes(), dump)
        << "snapshot at version " << snap.version();
  }
  EXPECT_NE(pinned.front().second, pinned.back().second);
}

}  // namespace
}  // namespace tchimera
