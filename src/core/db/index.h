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
// Each index is one value-ordered structure, split in two so that a
// commit never copies what other versions share (docs/INDEXING.md):
//
//   base   — every posting as of the last fold, sorted by IndexEntryLess
//            in shared immutable chunks (common/sorted_chunks.h, also the
//            store of class extent rows). A probe finds its range with
//            one binary search over the chunk directory. Versions share
//            the base by pointer, and only a fold makes a new one.
//   delta  — this version's changes since the fold: the postings
//            `added` to the base and those `erased` from it, two small
//            sorted chunked lists, so copying a version copies a few
//            chunk pointers.
//
// The index is the view base ∖ erased ∪ added. A write applies a per-oid
// diff (IndexPostings::ApplyDelta): it compares the oid's indexed facts
// captured before the mutation with the facts after it and erases and
// inserts only the postings that changed, into the delta. Erasing a
// posting the delta added cancels it, and so does re-inserting one it
// erased. Once the delta holds more than kIndexDeltaBound postings, the
// version whose write crossed the bound folds it into a new base in one
// sorted pass, copying each base chunk it touches once. Entries are
// keyed by oid only — the index covers every object that has the indexed
// attribute, regardless of class; the declared class is validated at
// creation and used by the planner's cost model, while extent membership
// is re-checked per probe (so class filtering can never diverge from a
// scan).
#ifndef TCHIMERA_CORE_DB_INDEX_H_
#define TCHIMERA_CORE_DB_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
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
static_assert(sizeof(IndexEntry) == 40, "a posting is five words");

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

// Postings sorted by IndexEntryLess in shared chunks: the base of an
// index and each half of its delta. Empty for kLifespan indexes.
class IndexPartition : public SortedChunks<IndexEntry, IndexEntryOrder> {
 public:
  using Chunks = SortedChunks<IndexEntry, IndexEntryOrder>;
  IndexPartition() = default;
  explicit IndexPartition(Chunks chunks) : Chunks(std::move(chunks)) {}

  // Bulk build over `objects` (any order): postings sorted and packed
  // into full chunks.
  static IndexPartition Build(const IndexDef& def,
                              const std::vector<const Object*>& objects);
};

// The postings whose values satisfy `op bound`. For kEq this is the
// equal_range of `bound`; for the inequalities it is a prefix or suffix
// (the null-valued prefix never matches < or <=).
PostingRange ProbeRange(const IndexPartition& part, ProbeOp op,
                        const Value& bound);

// How many postings an index's delta (added plus erased) may hold. The
// write that takes it past this bound folds it into a new base, so a
// fold comes at most once per kIndexDeltaBound posting changes and
// copies each base chunk it touches once. A larger bound makes folds
// rarer, but each one copies more chunks at once, and each version copy
// (and each probe search) handles a longer delta; 512 postings are a few
// dozen chunk pointers.
inline constexpr size_t kIndexDeltaBound = 512;

// One index's postings: the view base ∖ erased ∪ added (see above).
// Copying it copies the base pointer and the delta's chunk pointers.
class IndexPostings {
 public:
  IndexPostings();

  // Bulk build (index creation, restore): everything in the base.
  static IndexPostings Build(const IndexDef& def,
                             const std::vector<const Object*>& objects);

  // Moves `oid`'s postings from those of `before` to those of `after`,
  // in the delta: erases the postings only `before` has and inserts the
  // ones only `after` has. Then folds the delta into a new base once it
  // passes kIndexDeltaBound.
  void ApplyDelta(Oid oid, const IndexedFacts& before,
                  const IndexedFacts& after);

  // Calls fn(posting) for every posting in the view whose value
  // satisfies `op bound`: the base's range with the erased postings
  // skipped in lockstep, then the added range. Not in one order.
  template <typename Fn>
  void ForEachMatch(ProbeOp op, const Value& bound, Fn&& fn) const {
    const PostingRange range = ProbeRange(*base_, op, bound);
    if (erased_.empty()) {
      base_->ForEach(range, fn);
    } else {
      // The erased postings in range are a sorted subsequence of the
      // base's range.
      const PostingRange skip = ProbeRange(erased_, op, bound);
      PostingPos next = skip.first;
      base_->ForEach(range, [&](const IndexEntry& e) {
        if (next < skip.last && !IndexEntryLess(e, erased_.At(next))) {
          next = erased_.Next(next);
          return;
        }
        fn(e);
      });
    }
    added_.ForEach(ProbeRange(added_, op, bound), fn);
  }
  // How many postings ForEachMatch visits.
  size_t CountMatches(ProbeOp op, const Value& bound) const;
  // Every posting in the view, in IndexEntryLess order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    PostingPos skip = erased_.All().first;
    PostingPos add = added_.All().first;
    const PostingPos skip_end = erased_.All().last;
    const PostingPos add_end = added_.All().last;
    base_->ForEach(base_->All(), [&](const IndexEntry& e) {
      while (add < add_end && IndexEntryLess(added_.At(add), e)) {
        fn(added_.At(add));
        add = added_.Next(add);
      }
      if (skip < skip_end && !IndexEntryLess(e, erased_.At(skip))) {
        skip = erased_.Next(skip);
        return;
      }
      fn(e);
    });
    added_.ForEach({add, add_end}, fn);
  }

  size_t size() const {
    return base_->size() - erased_.size() + added_.size();
  }
  // Postings in the delta.
  size_t delta_size() const { return erased_.size() + added_.size(); }
  // The base, shared by every version since the last fold.
  const IndexPartition& base() const { return *base_; }

 private:
  void Insert(IndexEntry e);
  void Erase(const IndexEntry& e);

  std::shared_ptr<const IndexPartition> base_;
  IndexPartition added_;   // postings the base lacks
  IndexPartition erased_;  // base postings the view lacks
};

}  // namespace tchimera

#endif  // TCHIMERA_CORE_DB_INDEX_H_
