#include "common/interval.h"

#include <algorithm>
#include <sstream>

namespace vaq {

std::string Interval::ToString() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Interval& iv) {
  if (iv.empty()) return os << "[]";
  return os << "[" << iv.lo << "," << iv.hi << "]";
}

double IntervalIoU(const Interval& a, const Interval& b) {
  if (a.empty() || b.empty()) return 0.0;
  const int64_t inter_lo = std::max(a.lo, b.lo);
  const int64_t inter_hi = std::min(a.hi, b.hi);
  if (inter_lo > inter_hi) return 0.0;
  const int64_t inter = inter_hi - inter_lo + 1;
  const int64_t uni = a.length() + b.length() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

IntervalSet IntervalSet::FromIntervals(std::vector<Interval> intervals) {
  IntervalSet set;
  std::erase_if(intervals, [](const Interval& iv) { return iv.empty(); });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  for (const Interval& iv : intervals) {
    if (!set.intervals_.empty() && iv.lo <= set.intervals_.back().hi + 1) {
      set.intervals_.back().hi = std::max(set.intervals_.back().hi, iv.hi);
    } else {
      set.intervals_.push_back(iv);
    }
  }
  return set;
}

IntervalSet IntervalSet::FromIndicators(const std::vector<bool>& indicator,
                                        int64_t base) {
  IntervalSet set;
  int64_t run_start = -1;
  for (size_t i = 0; i <= indicator.size(); ++i) {
    const bool on = i < indicator.size() && indicator[i];
    if (on && run_start < 0) {
      run_start = static_cast<int64_t>(i);
    } else if (!on && run_start >= 0) {
      set.intervals_.push_back(
          Interval(base + run_start, base + static_cast<int64_t>(i) - 1));
      run_start = -1;
    }
  }
  return set;
}

void IntervalSet::Add(const Interval& iv) {
  if (iv.empty()) return;
  // Fast path: strictly after the current tail with a gap.
  if (intervals_.empty() || iv.lo > intervals_.back().hi + 1) {
    intervals_.push_back(iv);
    return;
  }
  // Fast path: extends or is absorbed by the tail.
  if (iv.lo >= intervals_.back().lo) {
    intervals_.back().hi = std::max(intervals_.back().hi, iv.hi);
    return;
  }
  // General case: renormalize.
  std::vector<Interval> all = intervals_;
  all.push_back(iv);
  *this = FromIntervals(std::move(all));
}

int64_t IntervalSet::TotalLength() const {
  int64_t total = 0;
  for (const Interval& iv : intervals_) total += iv.length();
  return total;
}

bool IntervalSet::Contains(int64_t x) const {
  // Binary search on interval starts.
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), x,
      [](int64_t value, const Interval& iv) { return value < iv.lo; });
  if (it == intervals_.begin()) return false;
  --it;
  return it->Contains(x);
}

IntervalSet IntervalSet::Intersect(const IntervalSet& other) const {
  IntervalSet out;
  out.AssignIntersection(*this, other);
  return out;
}

void IntervalSet::AssignIntersection(const IntervalSet& a,
                                     const IntervalSet& b) {
  intervals_.clear();
  size_t i = 0;
  size_t j = 0;
  while (i < a.intervals_.size() && j < b.intervals_.size()) {
    const Interval& x = a.intervals_[i];
    const Interval& y = b.intervals_[j];
    const int64_t lo = std::max(x.lo, y.lo);
    const int64_t hi = std::min(x.hi, y.hi);
    if (lo <= hi) Add(Interval(lo, hi));
    // Advance whichever interval ends first.
    if (x.hi < y.hi) {
      ++i;
    } else {
      ++j;
    }
  }
}

void IntervalSet::AssignUnion(const IntervalSet& a, const IntervalSet& b) {
  intervals_.clear();
  size_t i = 0;
  size_t j = 0;
  // Both inputs are sorted by lo, so merging them in lo order only ever
  // appends to or extends the tail (Add's fast paths).
  while (i < a.intervals_.size() || j < b.intervals_.size()) {
    const bool take_a =
        j == b.intervals_.size() ||
        (i < a.intervals_.size() && a.intervals_[i].lo <= b.intervals_[j].lo);
    Add(take_a ? a.intervals_[i++] : b.intervals_[j++]);
  }
}

IntervalSet IntervalSet::ComplementWithin(const Interval& universe) const {
  IntervalSet out;
  if (universe.empty()) return out;
  int64_t cursor = universe.lo;
  for (const Interval& iv : intervals_) {
    if (iv.hi < universe.lo) continue;
    if (iv.lo > universe.hi) break;
    if (iv.lo > cursor) out.Add(Interval(cursor, iv.lo - 1));
    cursor = std::max(cursor, iv.hi + 1);
  }
  if (cursor <= universe.hi) out.Add(Interval(cursor, universe.hi));
  return out;
}

std::string IntervalSet::ToString() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const IntervalSet& set) {
  os << "{";
  for (size_t i = 0; i < set.size(); ++i) {
    if (i > 0) os << ", ";
    os << set[i];
  }
  return os << "}";
}

}  // namespace vaq
