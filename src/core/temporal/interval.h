// Time intervals (Section 3.2): an interval I = [t1, t2] is the set of
// consecutive instants between t1 and t2, both included. [] denotes the
// null (empty) interval. The interval end may be the symbolic `now`
// (see instant.h); such an interval is "ongoing".
#ifndef TCHIMERA_CORE_TEMPORAL_INTERVAL_H_
#define TCHIMERA_CORE_TEMPORAL_INTERVAL_H_

#include <cstdint>
#include <optional>
#include <string>

#include "core/temporal/instant.h"

namespace tchimera {

// Allen's interval relations, used by the query layer's temporal
// predicates. Only defined between non-empty, resolved intervals.
enum class AllenRelation {
  kBefore,        // a entirely precedes b with a gap
  kMeets,         // a ends exactly one instant before b starts
  kOverlaps,      // a starts first, they overlap, b ends last
  kStarts,        // same start, a ends first
  kDuring,        // a strictly inside b
  kFinishes,      // same end, a starts later
  kEquals,        // identical
  kFinishedBy,    // inverse of kFinishes
  kContains,      // inverse of kDuring
  kStartedBy,     // inverse of kStarts
  kOverlappedBy,  // inverse of kOverlaps
  kMetBy,         // inverse of kMeets
  kAfter,         // inverse of kBefore
};

// A closed interval of instants, possibly empty, possibly ending at the
// symbolic `now`. Immutable value type.
class Interval {
 public:
  // The empty interval [].
  Interval() : start_(1), end_(0) {}

  // [start, end]; if end < start the result is the empty interval.
  Interval(TimePoint start, TimePoint end) : start_(start), end_(end) {}

  // The single-instant interval [t, t].
  static Interval At(TimePoint t) { return Interval(t, t); }
  static Interval Empty() { return Interval(); }
  // [start, now] — ongoing.
  static Interval FromUntilNow(TimePoint start) {
    return Interval(start, kNow);
  }

  bool empty() const { return end_ < start_; }
  // True if the interval's end is the symbolic `now`.
  bool is_ongoing() const { return !empty() && IsNow(end_); }

  // Endpoints; meaningless when empty().
  TimePoint start() const { return start_; }
  TimePoint end() const { return end_; }

  // Replaces a symbolic `now` endpoint with the concrete `current` time.
  // If the start exceeds the resolved end (e.g. [5, now] resolved at
  // current=3), the result is empty.
  Interval Resolve(TimePoint current) const;

  // Membership: t in I. `current` resolves an ongoing end; a symbolic `now`
  // query instant is also resolved against `current`.
  bool Contains(TimePoint t, TimePoint current) const;
  // Membership for intervals that are already fully concrete.
  bool ContainsResolved(TimePoint t) const {
    return !empty() && start_ <= t && t <= end_;
  }

  // True if `other` is a subset of this interval (both resolved against
  // `current`).
  bool Covers(const Interval& other, TimePoint current) const;

  // Set operations on resolved intervals. Intersection of intervals is an
  // interval; union and difference in general are not, so they live on
  // IntervalSet. Both operands are resolved against `current` first.
  Interval Intersect(const Interval& other, TimePoint current) const;
  bool Overlaps(const Interval& other, TimePoint current) const;

  // True if this interval and `other` are adjacent or overlapping, i.e.
  // their union is a single interval.
  bool Touches(const Interval& other, TimePoint current) const;

  // Number of instants in the resolved interval (0 when empty).
  int64_t Duration(TimePoint current) const;

  // The Allen relation from this interval to `other`; nullopt if either is
  // empty after resolution.
  std::optional<AllenRelation> RelationTo(const Interval& other,
                                          TimePoint current) const;

  // Structural equality (symbolic `now` compares equal only to `now`).
  friend bool operator==(const Interval& a, const Interval& b) {
    if (a.empty() && b.empty()) return true;
    return a.start_ == b.start_ && a.end_ == b.end_;
  }
  friend bool operator!=(const Interval& a, const Interval& b) {
    return !(a == b);
  }

  // "[3,17]", "[10,now]", or "[]".
  std::string ToString() const;

 private:
  TimePoint start_;
  TimePoint end_;
};

}  // namespace tchimera

#endif  // TCHIMERA_CORE_TEMPORAL_INTERVAL_H_
