#include "scanstat/binomial.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace vaq {
namespace scanstat {
namespace {

// log P[Bin(n, p) = k]; -inf outside the support. p in [0, 1].
double LogBinomialPmf(int64_t k, int64_t n, double p) {
  VAQ_CHECK_GE(n, 0);
  VAQ_CHECK_GE(p, 0.0);
  VAQ_CHECK_LE(p, 1.0);
  if (k < 0 || k > n) return kNegInf;
  if (p == 0.0) return k == 0 ? 0.0 : kNegInf;
  if (p == 1.0) return k == n ? 0.0 : kNegInf;
  return LogChoose(n, k) + static_cast<double>(k) * std::log(p) +
         static_cast<double>(n - k) * std::log1p(-p);
}

}  // namespace

double BinomialPmf(int64_t k, int64_t n, double p) {
  return std::exp(LogBinomialPmf(k, n, p));
}

double BinomialCdf(int64_t k, int64_t n, double p) {
  if (k < 0) return 0.0;
  if (k >= n) return 1.0;
  // Sum whichever tail has fewer terms; both stay accurate because each
  // pmf term is evaluated independently in log space.
  if (k <= n / 2) {
    double sum = 0.0;
    for (int64_t i = 0; i <= k; ++i) sum += BinomialPmf(i, n, p);
    return std::min(1.0, sum);
  }
  return std::max(0.0, 1.0 - BinomialSf(k + 1, n, p));
}

double BinomialSf(int64_t k, int64_t n, double p) {
  if (k <= 0) return 1.0;
  if (k > n) return 0.0;
  if (k <= n / 2) {
    return std::max(0.0, 1.0 - BinomialCdf(k - 1, n, p));
  }
  double sum = 0.0;
  for (int64_t i = k; i <= n; ++i) sum += BinomialPmf(i, n, p);
  return std::min(1.0, sum);
}

}  // namespace scanstat
}  // namespace vaq
