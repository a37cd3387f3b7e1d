// Temporal secondary indexes (see docs/INDEXING.md).
//
// Two kinds of declaration, and only one of them stores data. Index data
// is derived *purely* from single-object state, so it can always be
// rebuilt deterministically from the objects alone (journal replay,
// checkpoint recovery and replica resync all rely on this — only index
// *definitions* are persisted, never index data):
//
//   kValue     — an equality/range index over the values of one named
//                attribute. Each temporal segment of the attribute's
//                history contributes one posting <value, valid, oid>;
//                a non-temporal attribute contributes a single
//                always-valid posting. Postings are sorted by
//                (value, oid, valid.start) under Value::Compare — the
//                exact ordering the query kernels use for =, <, <=, >,
//                >= (query/evaluator.cc ApplyBinaryOp), so a range probe
//                agrees with a scan on every value kind.
//   kLifespan  — a declaration only: it parses, journals, persists and
//                lists like a value index, but holds no postings.
//
// Storage is chunked copy-on-write: Database keeps one IndexShard per
// object shard, cloned with the same epoch protocol as the object shards
// (core/db/database.h). A partition's sorted postings live in shared,
// immutable chunks (common/sorted_chunks.h, also the store of class
// extent rows), so a shard clone copies chunk pointers only. A write
// applies a per-oid delta (IndexPartition::ApplyDelta): it diffs the
// oid's indexed facts captured before the mutation against the facts
// after it, and erases and inserts only the postings that changed, each
// found by binary search on (value, oid, start) — copying just the chunks
// it touches. Per write that is O(changed postings · log P + chunks
// touched), independent of the shard's size. Entries are keyed by oid
// only — the index covers every object that has the indexed attribute,
// regardless of class; the declared class is validated at creation and
// used by the planner's cost model, while extent membership is
// re-checked per probe (so class filtering can never diverge from a
// scan).
#ifndef TCHIMERA_CORE_DB_INDEX_H_
#define TCHIMERA_CORE_DB_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sorted_chunks.h"
#include "core/object/object.h"
#include "core/temporal/interval.h"
#include "core/values/value.h"

namespace tchimera {

enum class IndexKind { kValue, kLifespan };

const char* IndexKindName(IndexKind kind);

// One index declaration (`create index <name> on <class> (<attr>)` or
// `create index <name> on <class> lifespan`).
struct IndexDef {
  std::string name;
  IndexKind kind = IndexKind::kValue;
  std::string class_name;
  std::string attr;  // empty for kLifespan
};

// Comparison operators a value-index probe supports. The semantics are
// Value::Compare — identical to the scalar kernels, so the probe's match
// set equals the rows on which the predicate evaluates truthy (a null or
// undefined attribute matches nothing, exactly as the kernels return
// null/false for it).
enum class ProbeOp { kEq, kLt, kLe, kGt, kGe };

// One value posting: `oid`'s indexed attribute compared equal to `value`
// throughout `valid` (the raw stored interval — possibly kNow-ending;
// resolved against the clock at probe time).
struct IndexEntry {
  Value value;
  Interval valid;
  Oid oid;
};

// Sort key for postings: (value, oid, valid.start) under Value::Compare.
bool IndexEntryLess(const IndexEntry& a, const IndexEntry& b);

// Orders postings by IndexEntryLess, for the chunk store.
struct IndexEntryOrder {
  bool operator()(const IndexEntry& a, const IndexEntry& b) const {
    return IndexEntryLess(a, b);
  }
};

// Postings live in the shared chunk store (common/sorted_chunks.h).
inline constexpr size_t kPostingChunkCapacity = kChunkCapacity;
using PostingPos = ChunkPos;
using PostingRange = ChunkRange;

// What one index reads of one object: the stored value of the indexed
// attribute (`present` is false when the object or the attribute is
// absent, and always for a kLifespan declaration). Value is an immutable
// shared rep, so capturing facts before a mutation is a refcount copy.
struct IndexedFacts {
  bool present = false;
  Value stored;
};

IndexedFacts CaptureIndexedFacts(const IndexDef& def, const Object* obj);

// A cheap identity test: true only when `a` and `b` certainly index
// identically (same temporal rep, or equal scalar). A false answer merely
// costs an empty delta.
bool SameIndexedFacts(const IndexedFacts& a, const IndexedFacts& b);

// The per-shard slice of one index: its postings, sorted by
// IndexEntryLess in shared chunks. Empty for kLifespan indexes.
class IndexPartition : public SortedChunks<IndexEntry, IndexEntryOrder> {
 public:
  // Bulk build over `objects` (any order): postings sorted and packed
  // into full chunks.
  static IndexPartition Build(const IndexDef& def,
                              const std::vector<const Object*>& objects);

  // Moves `oid`'s postings from those of `before` to those of `after`:
  // erases the postings only `before` has and inserts the ones only
  // `after` has.
  void ApplyDelta(Oid oid, const IndexedFacts& before,
                  const IndexedFacts& after);
};

// One COW shard of the index store: every registered index's partition
// for this shard's oids. Cloned when a writer first touches the shard in
// its epoch (same protocol as Database::ObjectShard) — a clone shares
// every chunk with the original.
struct IndexShard {
  uint64_t epoch = 0;
  std::map<std::string, IndexPartition, std::less<>> parts;
};

// The postings whose values satisfy `op bound`. For kEq this is the
// equal_range of `bound`; for the inequalities it is a prefix or suffix
// (the null-valued prefix never matches < or <=).
PostingRange ProbeRange(const IndexPartition& part, ProbeOp op,
                        const Value& bound);

}  // namespace tchimera

#endif  // TCHIMERA_CORE_DB_INDEX_H_
