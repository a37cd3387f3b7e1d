#include "core/db/index.h"

#include <algorithm>
#include <bit>
#include <span>

#include "core/values/temporal_function.h"

namespace tchimera {

const char* IndexKindName(IndexKind kind) {
  return kind == IndexKind::kValue ? "value" : "lifespan";
}

namespace {

using Segment = TemporalFunction::Segment;

// Value::Compare with the integer case inline: the binary searches and
// the delta's segment walk compare mostly integers.
int CompareValues(const Value& a, const Value& b) {
  if (a.kind() == ValueKind::kInteger && b.kind() == ValueKind::kInteger) {
    return a.AsInteger() < b.AsInteger() ? -1 : a.AsInteger() > b.AsInteger();
  }
  return Value::Compare(a, b);
}

// Equal under Value::Compare AND rendered identically, so a posting the
// delta keeps dumps exactly like a rebuilt one (Compare equates 0.0 with
// -0.0 and NaN with everything; composite values can hide such reals).
bool IdenticalValue(const Value& a, const Value& b) {
  if (CompareValues(a, b) != 0) return false;
  switch (a.kind()) {
    case ValueKind::kReal:
      return std::bit_cast<uint64_t>(a.AsReal()) ==
             std::bit_cast<uint64_t>(b.AsReal());
    case ValueKind::kSet:
    case ValueKind::kList:
    case ValueKind::kRecord:
    case ValueKind::kTemporal:
      return a.ToString() == b.ToString();
    default:
      return true;
  }
}

// The segments `facts` posts, in time order. A non-temporal attribute
// projects to its stored value at every instant
// (ProjectStoredAttribute), so it posts one always-valid segment, built
// in `single`.
std::span<const Segment> PostedSegments(const IndexedFacts& facts,
                                        Segment* single) {
  if (!facts.present) return {};
  if (facts.stored.kind() == ValueKind::kTemporal) {
    return facts.stored.AsTemporal().segments();
  }
  *single = Segment{Interval::FromUntilNow(0), facts.stored};
  return {single, 1};
}

// The posting key order: (value, oid, start) under Value::Compare.
bool PostingKeyLess(const Value& av, Oid ao, TimePoint as, const Value& bv,
                    Oid bo, TimePoint bs) {
  const int c = CompareValues(av, bv);
  if (c != 0) return c < 0;
  if (ao != bo) return ao < bo;
  return as < bs;
}

// True when `held` (found by key equivalence) is `e` itself: the same
// validity interval and a value that renders the same.
bool SamePosting(const IndexEntry* held, const IndexEntry& e) {
  return held != nullptr && held->valid == e.valid &&
         IdenticalValue(held->value, e.value);
}

}  // namespace

bool IndexEntryLess(const IndexEntry& a, const IndexEntry& b) {
  return PostingKeyLess(a.value, a.oid, a.valid.start(), b.value, b.oid,
                        b.valid.start());
}

IndexedFacts CaptureIndexedFacts(const IndexDef& def, const Object* obj) {
  IndexedFacts facts;
  if (obj == nullptr || def.kind != IndexKind::kValue) return facts;
  const Value* stored = obj->Attribute(def.attr);
  if (stored == nullptr) return facts;
  facts.present = true;
  facts.stored = *stored;
  return facts;
}

bool SameIndexedFacts(const IndexedFacts& a, const IndexedFacts& b) {
  if (a.present != b.present) return false;
  if (!a.present) return true;
  if (a.stored.kind() == ValueKind::kTemporal &&
      b.stored.kind() == ValueKind::kTemporal) {
    return &a.stored.AsTemporal() == &b.stored.AsTemporal();
  }
  return IdenticalValue(a.stored, b.stored);
}

IndexPartition IndexPartition::Build(
    const IndexDef& def, const std::vector<const Object*>& objects) {
  // Sorts references to the objects' segments and copies each posting
  // once, into its chunk: a whole index is built in one pass, so a
  // sorted copy of every posting would double the build's peak memory.
  struct Posted {
    const Segment* seg;
    Oid oid;
  };
  // Non-temporal values' postings; reserved, so the references stay put.
  std::vector<Segment> singles;
  singles.reserve(objects.size());
  std::vector<Posted> posted;
  for (const Object* obj : objects) {
    // A temporal value's segments live in the object's shared rep.
    for (const Segment& seg : PostedSegments(CaptureIndexedFacts(def, obj),
                                             &singles.emplace_back())) {
      posted.push_back({&seg, obj->id()});
    }
  }
  // Postings order by value first, so they need a sort even when the
  // objects come in oid order; the sort keys (IndexEntryLess) are unique
  // per (oid, start), so a build is deterministic for given object state.
  std::sort(posted.begin(), posted.end(), [](const Posted& a, const Posted& b) {
    return PostingKeyLess(a.seg->value, a.oid, a.seg->interval.start(),
                          b.seg->value, b.oid, b.seg->interval.start());
  });
  return IndexPartition(Chunks::BuildFrom(posted.size(), [&](size_t i) {
    return IndexEntry{posted[i].seg->value, posted[i].seg->interval,
                      posted[i].oid};
  }));
}

IndexPostings::IndexPostings()
    : base_(std::make_shared<const IndexPartition>()) {}

IndexPostings IndexPostings::Build(const IndexDef& def,
                                   const std::vector<const Object*>& objects) {
  IndexPostings out;
  out.base_ =
      std::make_shared<const IndexPartition>(IndexPartition::Build(def, objects));
  return out;
}

void IndexPostings::Insert(IndexEntry e) {
  if (SamePosting(erased_.Find(e), e)) {
    erased_.Erase(e);
  } else {
    added_.Insert(std::move(e));
  }
}

void IndexPostings::Erase(const IndexEntry& e) {
  if (SamePosting(added_.Find(e), e)) {
    added_.Erase(e);
  } else {
    erased_.Insert(e);
  }
}

void IndexPostings::ApplyDelta(Oid oid, const IndexedFacts& before,
                               const IndexedFacts& after) {
  // Both segment lists are in time order with unique starts, so a merge
  // on the start instant pairs each old posting with its replacement. A
  // posting's key ends in its start, so erasing the old one before
  // inserting the new one never collides.
  Segment before_single;
  Segment after_single;
  const std::span<const Segment> old_segs =
      PostedSegments(before, &before_single);
  const std::span<const Segment> new_segs =
      PostedSegments(after, &after_single);
  size_t i = 0;
  size_t j = 0;
  while (i < old_segs.size() || j < new_segs.size()) {
    const Segment* o = i < old_segs.size() ? &old_segs[i] : nullptr;
    const Segment* n = j < new_segs.size() ? &new_segs[j] : nullptr;
    if (o != nullptr && n != nullptr &&
        o->interval.start() == n->interval.start()) {
      ++i;
      ++j;
      if (o->interval == n->interval && IdenticalValue(o->value, n->value)) {
        continue;
      }
    } else if (n == nullptr ||
               (o != nullptr && o->interval.start() < n->interval.start())) {
      ++i;
      n = nullptr;
    } else {
      ++j;
      o = nullptr;
    }
    if (o != nullptr) Erase(IndexEntry{o->value, o->interval, oid});
    if (n != nullptr) Insert(IndexEntry{n->value, n->interval, oid});
  }
  if (delta_size() <= kIndexDeltaBound) return;
  std::vector<IndexEntry> erase;
  std::vector<IndexEntry> insert;
  erase.reserve(erased_.size());
  insert.reserve(added_.size());
  erased_.ForEach(erased_.All(),
                  [&](const IndexEntry& e) { erase.push_back(e); });
  added_.ForEach(added_.All(),
                 [&](const IndexEntry& e) { insert.push_back(e); });
  base_ = std::make_shared<const IndexPartition>(
      base_->Merged(erase, insert));
  added_ = IndexPartition();
  erased_ = IndexPartition();
}

size_t IndexPostings::CountMatches(ProbeOp op, const Value& bound) const {
  return base_->Count(ProbeRange(*base_, op, bound)) -
         erased_.Count(ProbeRange(erased_, op, bound)) +
         added_.Count(ProbeRange(added_, op, bound));
}

PostingRange ProbeRange(const IndexPartition& part, ProbeOp op,
                        const Value& bound) {
  // Each operator searches only for the partition points it uses: a
  // probe runs once on the base and once per delta half, and most
  // probes need one or two.
  const auto lower = [&] {
    return part.PartitionPoint(
        [&](const IndexEntry& e) { return CompareValues(e.value, bound) < 0; });
  };
  const auto upper = [&] {
    return part.PartitionPoint([&](const IndexEntry& e) {
      return CompareValues(bound, e.value) >= 0;
    });
  };
  // The inequality kernels return null (never truthy) when the attribute
  // value is null, but Value::Compare ranks null below every other kind —
  // so the null-valued postings form a prefix, which must not match < /
  // <=. The planner never probes with a null bound (kEq on null would
  // also have to match *undefined* attributes, which carry no posting).
  const auto after_nulls = [&] {
    return part.PartitionPoint(
        [](const IndexEntry& e) { return e.value.is_null(); });
  };
  const PostingPos end = part.All().last;
  switch (op) {
    case ProbeOp::kEq:
      return {lower(), upper()};
    case ProbeOp::kLt: {
      const PostingPos first = after_nulls();
      return {first, std::max(lower(), first)};
    }
    case ProbeOp::kLe: {
      const PostingPos first = after_nulls();
      return {first, std::max(upper(), first)};
    }
    case ProbeOp::kGt:
      return {upper(), end};
    case ProbeOp::kGe:
      return {std::max(lower(), after_nulls()), end};
  }
  return {end, end};
}

}  // namespace tchimera
