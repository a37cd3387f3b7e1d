#include "core/temporal/interval.h"

#include <algorithm>

namespace tchimera {

std::string InstantToString(TimePoint t) {
  if (IsNow(t)) return "now";
  return std::to_string(t);
}

Interval Interval::Resolve(TimePoint current) const {
  if (empty()) return Empty();
  TimePoint s = ResolveInstant(start_, current);
  TimePoint e = ResolveInstant(end_, current);
  if (e < s) return Empty();
  return Interval(s, e);
}

bool Interval::Contains(TimePoint t, TimePoint current) const {
  return Resolve(current).ContainsResolved(ResolveInstant(t, current));
}

bool Interval::Covers(const Interval& other, TimePoint current) const {
  Interval a = Resolve(current);
  Interval b = other.Resolve(current);
  if (b.empty()) return true;
  if (a.empty()) return false;
  return a.start_ <= b.start_ && b.end_ <= a.end_;
}

Interval Interval::Intersect(const Interval& other, TimePoint current) const {
  Interval a = Resolve(current);
  Interval b = other.Resolve(current);
  if (a.empty() || b.empty()) return Empty();
  TimePoint s = std::max(a.start_, b.start_);
  TimePoint e = std::min(a.end_, b.end_);
  if (e < s) return Empty();
  return Interval(s, e);
}

bool Interval::Overlaps(const Interval& other, TimePoint current) const {
  return !Intersect(other, current).empty();
}

bool Interval::Touches(const Interval& other, TimePoint current) const {
  Interval a = Resolve(current);
  Interval b = other.Resolve(current);
  if (a.empty() || b.empty()) return false;
  // Adjacent or overlapping: neither gap a.end+1 < b.start nor
  // b.end+1 < a.start.
  return a.start_ <= b.end_ + 1 && b.start_ <= a.end_ + 1;
}

int64_t Interval::Duration(TimePoint current) const {
  Interval r = Resolve(current);
  if (r.empty()) return 0;
  return r.end_ - r.start_ + 1;
}

std::optional<AllenRelation> Interval::RelationTo(const Interval& other,
                                                  TimePoint current) const {
  Interval a = Resolve(current);
  Interval b = other.Resolve(current);
  if (a.empty() || b.empty()) return std::nullopt;
  if (a.end_ + 1 < b.start_) return AllenRelation::kBefore;
  if (a.end_ + 1 == b.start_) return AllenRelation::kMeets;
  if (b.end_ + 1 < a.start_) return AllenRelation::kAfter;
  if (b.end_ + 1 == a.start_) return AllenRelation::kMetBy;
  if (a.start_ == b.start_ && a.end_ == b.end_) return AllenRelation::kEquals;
  if (a.start_ == b.start_) {
    return a.end_ < b.end_ ? AllenRelation::kStarts : AllenRelation::kStartedBy;
  }
  if (a.end_ == b.end_) {
    return a.start_ > b.start_ ? AllenRelation::kFinishes
                               : AllenRelation::kFinishedBy;
  }
  if (a.start_ > b.start_ && a.end_ < b.end_) return AllenRelation::kDuring;
  if (b.start_ > a.start_ && b.end_ < a.end_) return AllenRelation::kContains;
  return a.start_ < b.start_ ? AllenRelation::kOverlaps
                             : AllenRelation::kOverlappedBy;
}

std::string Interval::ToString() const {
  if (empty()) return "[]";
  return "[" + InstantToString(start_) + "," + InstantToString(end_) + "]";
}

}  // namespace tchimera
