// Tests for the chunked copy-on-write temporal index (core/db/index.h):
//
//   (a) every ProbeOp's posting range equals a linear scan, on partitions
//       whose equal-value runs and null-valued prefix straddle chunk
//       boundaries — both bulk-built (full chunks) and grown by per-oid
//       deltas (split, half-full chunks);
//   (b) a seeded differential of a few thousand writes through the
//       optimistic and the exclusive commit paths: after every commit the
//       head's indexes dump exactly like a from-scratch rebuild, and the
//       sequence provably splits chunks and empties chunks;
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

TEST(IndexPartitionTest, DeltaGrownProbesMatchLinearScanAndBulkBuild) {
  std::vector<std::unique_ptr<Object>> objects = RunObjects();
  std::vector<const Object*> raw;
  for (const auto& obj : objects) raw.push_back(obj.get());
  std::shuffle(raw.begin(), raw.end(), std::mt19937_64(11));
  const IndexedFacts absent;
  IndexPartition grown;
  for (const Object* obj : raw) {
    grown.ApplyDelta(obj->id(), absent,
                     CaptureIndexedFacts(kRunDef, obj));
  }
  // Random-order inserts split chunks, leaving them between half and
  // fully occupied.
  EXPECT_GT(grown.chunk_count(),
            (raw.size() + kPostingChunkCapacity - 1) / kPostingChunkCapacity);
  const IndexPartition built = IndexPartition::Build(kRunDef, raw);
  EXPECT_EQ(Flatten(grown, grown.All()), Flatten(built, built.All()));
  ExpectProbesMatchScan(grown, ProbeBounds());

  // Erase a whole block of runs (those chunks empty and are dropped) and
  // three in four of the other postings (those chunks thin out).
  const size_t chunks_before = grown.chunk_count();
  std::vector<const Object*> kept;
  for (size_t i = 0; i < raw.size(); ++i) {
    const Value& v = *raw[i]->Attribute("v");
    const bool in_block = v.kind() == ValueKind::kInteger &&
                          v.AsInteger() >= 50 && v.AsInteger() < 150;
    if (!in_block && i % 4 == 0) {
      kept.push_back(raw[i]);
      continue;
    }
    grown.ApplyDelta(raw[i]->id(),
                     CaptureIndexedFacts(kRunDef, raw[i]), absent);
  }
  EXPECT_LT(grown.chunk_count(), chunks_before);
  const IndexPartition rebuilt = IndexPartition::Build(kRunDef, kept);
  EXPECT_EQ(Flatten(grown, grown.All()), Flatten(rebuilt, rebuilt.All()));
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
// every posting is inserted by a delta (no bulk build) — a chunk count
// above one per partition can only come from a split.
constexpr char kSchema[] =
    "define class emp attributes v: temporal(integer) end\n"
    "define class mgr under emp attributes bonus: integer end\n"
    "create index ev on emp (v)\n"
    "create index eb on mgr (bonus)\n"
    "create index el on emp lifespan";

constexpr uint64_t kShards = 64;
constexpr TimePoint kPopulatedAt = 1000;

class IndexWorkload {
 public:
  explicit IndexWorkload(uint64_t seed) : rng_(seed) {}

  // One object per shard (oids 1..64); the two "hot" shards' objects get
  // long histories so their ev partitions span several chunks.
  void Populate(VersionedDatabase* vdb) {
    WriteGuard guard = vdb->BeginWrite();
    Database& db = guard.db();
    Result<std::string> defined = Interpreter(&db).ExecuteScript(kSchema);
    ASSERT_TRUE(defined.ok()) << defined.status();
    ASSERT_TRUE(db.AdvanceTo(kPopulatedAt).ok());
    for (uint64_t i = 1; i <= kShards; ++i) {
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
    return oid.id % kShards == 1 || oid.id % kShards == 2;
  }

  int64_t Pick(int64_t n) {
    return static_cast<int64_t>(rng_() % static_cast<uint64_t>(n));
  }

  Oid AnyObject(const Database& db) {
    const std::vector<Oid> oids = db.AllOids();
    // Half the picks go to the hot shards, which keeps their partitions
    // growing (and splitting) throughout the run.
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
  size_t ev_chunks = 0;
  size_t eb_chunks = 0;
  {
    ReadSnapshot snap = vdb.OpenSnapshot();
    ASSERT_EQ(snap.db().DebugDumpIndexes(), RebuiltIndexDump(snap.db()));
    ev_chunks = snap.db().IndexChunkCount("ev");
    eb_chunks = snap.db().IndexChunkCount("eb");
    // Every shard holds objects with v, so each ev partition has a chunk
    // from here on; the hot shards already needed more.
    ASSERT_GT(ev_chunks, kShards);
  }
  int commits = 0;
  int ev_splits = 0;
  int eb_emptied = 0;
  auto check = [&] {
    ++commits;
    ReadSnapshot snap = vdb.OpenSnapshot();
    const Database& db = snap.db();
    ASSERT_EQ(db.DebugDumpIndexes(), RebuiltIndexDump(db))
        << "after commit " << commits;
    // ev never gains a partition (every shard has one already), so more
    // chunks mean a split; chunks are never merged, so fewer eb chunks
    // mean an emptied chunk was dropped.
    const size_t ev = db.IndexChunkCount("ev");
    const size_t eb = db.IndexChunkCount("eb");
    ev_splits += ev > ev_chunks;
    eb_emptied += eb < eb_chunks;
    ev_chunks = ev;
    eb_chunks = eb;
  };
  while (commits < 2000 && !HasFailure()) workload.Step(&vdb, check);
  ASSERT_FALSE(HasFailure());
  EXPECT_GT(ev_splits, 0);
  EXPECT_GT(eb_emptied, 0);

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
