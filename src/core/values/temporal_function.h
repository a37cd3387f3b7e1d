// Temporal functions: the values of temporal types (Definition 3.5).
//
// The extension of temporal(T) at time t is the set of *partial functions*
// f : TIME -> U_t' [[T]]_t'. Following the paper's Section 3.2 we represent
// such a function compactly as a set of pairs {<tau_1,v_1>,...,<tau_n,v_n>}
// of disjoint time intervals and values: f(t) = v_i for every t in tau_i.
//
// An interval ending at the symbolic `now` (kNow) means "holds from its
// start onward until superseded"; arithmetically kNow behaves as +infinity
// (it is the largest TimePoint), so membership tests need no special
// casing, and Domain()/ToString() resolve it against the clock for
// presentation in the paper's `[51,now]` notation.
#ifndef TCHIMERA_CORE_VALUES_TEMPORAL_FUNCTION_H_
#define TCHIMERA_CORE_VALUES_TEMPORAL_FUNCTION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/temporal/interval.h"
#include "core/temporal/interval_set.h"
#include "core/values/value.h"

namespace tchimera {

class TemporalFunction {
 public:
  // One piece <tau_i, v_i> of the function.
  struct Segment {
    Interval interval;
    Value value;

    friend bool operator==(const Segment& a, const Segment& b) {
      return a.interval == b.interval && a.value == b.value;
    }
  };
  static_assert(sizeof(Segment) == 32, "a segment is an interval and a Value");

  // The everywhere-undefined function.
  TemporalFunction() = default;

  // Builds a function from segments. Fails with TemporalError if any two
  // segments overlap; empty-interval segments are dropped; the result is
  // sorted and coalesced (adjacent equal values merged).
  static Result<TemporalFunction> Make(std::vector<Segment> segments);

  // The constant function v over `interval` ("immutable attributes can be
  // regarded as a constant function from a temporal domain", Section 1.1).
  static TemporalFunction Constant(const Interval& interval, Value v);

  bool empty() const { return segments_.empty(); }
  size_t segment_count() const { return segments_.size(); }
  const std::vector<Segment>& segments() const { return segments_; }

  // f(t): the value at instant t, or null when t is outside the domain.
  const Value* At(TimePoint t) const;
  bool IsDefinedAt(TimePoint t) const { return At(t) != nullptr; }

  // The domain of the partial function. Ongoing segments are clipped to
  // `current` (for a segment starting in the future relative to `current`
  // nothing is reported).
  IntervalSet Domain(TimePoint current) const;
  // The unclipped domain, with kNow kept as +infinity endpoints.
  IntervalSet RawDomain() const;

  // Redefines the function on `interval` to the constant v, splicing
  // around existing segments (existing pieces outside `interval` are
  // preserved). A null v with erase semantics is allowed via Erase().
  Status Define(const Interval& interval, Value v);
  // Removes `interval` from the domain.
  Status Erase(const Interval& interval);
  // Shorthand for Define([t, now], v): asserts v from t onward.
  Status AssertFrom(TimePoint t, Value v);
  // Ends an ongoing final segment at instant `t` (inclusive). No-op if the
  // function has no ongoing segment.
  void CloseAt(TimePoint t);

  // The first/last instant of the domain; requires !empty(). The end of an
  // ongoing function is kNow.
  TimePoint DomainStart() const { return segments_.front().interval.start(); }
  TimePoint DomainEnd() const { return segments_.back().interval.end(); }

  friend bool operator==(const TemporalFunction& a,
                         const TemporalFunction& b) {
    return a.segments_ == b.segments_;
  }
  friend bool operator!=(const TemporalFunction& a,
                         const TemporalFunction& b) {
    return !(a == b);
  }

  // Total order consistent with ==, used for the canonical ordering of
  // values containing temporal functions.
  static int Compare(const TemporalFunction& a, const TemporalFunction& b);

  // "{<[5,10],12>,<[11,now],5>}" (paper notation).
  std::string ToString() const;

  size_t ApproxBytes() const;

 private:
  void Coalesce();

  // Sorted by interval start; pairwise disjoint; no empty intervals; at
  // most the last segment is ongoing (ends at kNow).
  std::vector<Segment> segments_;
};

}  // namespace tchimera

#endif  // TCHIMERA_CORE_VALUES_TEMPORAL_FUNCTION_H_
