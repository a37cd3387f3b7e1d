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

}  // namespace

bool IndexEntryLess(const IndexEntry& a, const IndexEntry& b) {
  int c = CompareValues(a.value, b.value);
  if (c != 0) return c < 0;
  if (a.oid != b.oid) return a.oid < b.oid;
  return a.valid.start() < b.valid.start();
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
  std::vector<IndexEntry> postings;
  for (const Object* obj : objects) {
    Segment single;
    for (const Segment& seg :
         PostedSegments(CaptureIndexedFacts(def, obj), &single)) {
      postings.push_back({seg.value, seg.interval, obj->id()});
    }
  }
  // Postings order by value first, so they need a sort even for a shard's
  // oid-ordered slots; the sort keys are unique per (oid, start), so a
  // build is deterministic for given object state.
  std::sort(postings.begin(), postings.end(), IndexEntryLess);
  IndexPartition part;
  static_cast<SortedChunks&>(part) = SortedChunks::Build(std::move(postings));
  return part;
}

void IndexPartition::ApplyDelta(Oid oid, const IndexedFacts& before,
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
    if (o != nullptr) Erase({o->value, o->interval, oid});
    if (n != nullptr) Insert({n->value, n->interval, oid});
  }
}

PostingRange ProbeRange(const IndexPartition& part, ProbeOp op,
                        const Value& bound) {
  // Each operator searches only for the partition points it uses: a
  // probe runs once per index shard, and most probes need one or two.
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
