// Small numerical helpers shared across VAQ modules.
#ifndef VAQ_COMMON_MATH_UTIL_H_
#define VAQ_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <limits>

namespace vaq {

inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Thread-safe log-gamma. std::lgamma writes the process-global signgam,
// a data race when scan-stat thresholds are recomputed on concurrent
// serve workers; all arguments here are positive, so the sign is 1 and
// lgamma_r (POSIX) / plain lgamma (elsewhere) are interchangeable.
inline double LogGammaPositive(double x) {
#if defined(__unix__) || defined(__APPLE__)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

// log C(n, k) via lgamma; requires 0 <= k <= n.
inline double LogChoose(int64_t n, int64_t k) {
  if (k < 0 || k > n) return kNegInf;
  return LogGammaPositive(static_cast<double>(n) + 1.0) -
         LogGammaPositive(static_cast<double>(k) + 1.0) -
         LogGammaPositive(static_cast<double>(n - k) + 1.0);
}

// Clamps a probability to [0, 1].
inline double ClampProbability(double p) {
  return std::min(1.0, std::max(0.0, p));
}

}  // namespace vaq

#endif  // VAQ_COMMON_MATH_UTIL_H_
