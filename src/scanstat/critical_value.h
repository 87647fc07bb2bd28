// Critical value solver for Eq. 5 of the paper:
//
//   k_crit = min { k : P(S_w(N) >= k | p0, w, L) <= alpha }.
//
// If the number of positive predictions within a scanning interval (a clip,
// in SVAQ/SVAQD) reaches k_crit, the event is declared present at
// significance level alpha.
#ifndef VAQ_SCANSTAT_CRITICAL_VALUE_H_
#define VAQ_SCANSTAT_CRITICAL_VALUE_H_

#include <cstdint>
#include <string>

namespace vaq {
namespace scanstat {

// Parameters of a critical-value computation.
struct ScanConfig {
  // Scanning-interval length in occurrence units (frames per clip for
  // object predicates, shots per clip for the action predicate).
  int64_t window = 50;
  // Design horizon: the total number of occurrence units N the stream is
  // sized for; L = horizon / window. Larger horizons demand more evidence
  // (multiple-comparison correction across more windows).
  int64_t horizon = 100000;
  // Significance level alpha of Eq. 5.
  double alpha = 0.01;

  double L() const {
    return static_cast<double>(horizon) / static_cast<double>(window);
  }
  std::string ToString() const;
};

// Eq. 5's search over k, shared by CriticalValue and MarkovCriticalValue:
// the smallest k in [1, window] with tail(k) <= alpha, or window + 1 when
// none. `tail` must be non-increasing in k, so bisection finds that k;
// the k probed, and their order, depend on (window, alpha, tail) alone.
template <typename Tail>
int64_t FirstSignificantCount(int64_t window, double alpha, Tail tail) {
  int64_t lo = 1;           // Smallest candidate.
  int64_t hi = window + 1;  // Sentinel: "never significant".
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (tail(mid) <= alpha) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Smallest k in [1, window] whose scan tail probability is <= alpha under
// background probability `p`. Returns window + 1 when even k = window is
// not significant (the background rate is too high for any count within
// one window to be surprising); callers treat that as "indicator never
// fires".
int64_t CriticalValue(double p, const ScanConfig& config);

}  // namespace scanstat
}  // namespace vaq

#endif  // VAQ_SCANSTAT_CRITICAL_VALUE_H_
