// Binomial distribution helpers computed in log space for numerical
// robustness at the extreme tail probabilities scan statistics operate on
// (background probabilities down to 1e-6 and windows of hundreds of
// trials).
#ifndef VAQ_SCANSTAT_BINOMIAL_H_
#define VAQ_SCANSTAT_BINOMIAL_H_

#include <cstdint>

namespace vaq {
namespace scanstat {

// P[Bin(n, p) = k].
double BinomialPmf(int64_t k, int64_t n, double p);

// P[Bin(n, p) <= k]. Returns 0 for k < 0 and 1 for k >= n.
// Computed by direct summation from the smaller tail.
double BinomialCdf(int64_t k, int64_t n, double p);

// P[Bin(n, p) >= k] = 1 - Cdf(k - 1), summed from the upper tail so small
// survival probabilities keep full relative precision.
double BinomialSf(int64_t k, int64_t n, double p);

}  // namespace scanstat
}  // namespace vaq

#endif  // VAQ_SCANSTAT_BINOMIAL_H_
