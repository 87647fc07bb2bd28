// Track-and-stop top-k best-arm identification.
//
// The skeleton follows MAGPIE's bai.c / bai_sampling_rule.c: a
// RandomVariables bank of per-arm streams and statistics, a sampling rule
// that tracks the *critical pair* — the weakest arm inside the empirical
// top-k and the strongest arm outside it, the two whose order is hardest
// to certify — and a GLR-style stopping rule that halts once
//
//   Z(t) = min over (i in top-k, j outside)
//          (mû_i - mû_j)^2 / (2 σ̂^2 (1/N_i + 1/N_j)),   mû_i > mû_j,
//
// exceeds the exploration threshold Beta(t, δ) = log(A/δ) + log(1+log t)
// (A = number of arms). Along the way an arm whose upper confidence bound
// sinks below the k-th highest lower confidence bound is eliminated — it
// can no longer enter the top-k at confidence δ — and stops being pulled.
// On a confident stop the survivors are exactly the empirical top-k; on
// pull-budget exhaustion every non-eliminated arm survives, so the caller
// always receives >= k arms to evaluate exactly.
//
// Finite-support arms: when the caller supplies per-arm support sizes
// (arm i has support[i] distinct sample values and its sampler cycles
// through them without replacement), an arm that has been pulled
// support[i] times is *frozen* — its empirical mean is its exact value,
// its confidence radius is zero, and it is never pulled again. A pair of
// frozen arms with a nonzero gap is certified outright (Z = +inf); a
// frozen tie is statistically unresolvable, so the loop hands both arms
// to exact evaluation instead of spinning.
//
// Everything is deterministic per (num_arms, seed, options): arm streams
// are seed-derived (never shared), ties break by arm index, and no wall
// clock is consulted.
#ifndef VAQ_BAI_TOP_K_IDENTIFIER_H_
#define VAQ_BAI_TOP_K_IDENTIFIER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "bai/random_variables.h"
#include "common/rng.h"

namespace vaq {
namespace bai {

struct IdentifyOptions {
  int64_t k = 5;
  // Failure probability: the identified set equals the true top-k with
  // probability >= 1 - delta (under the sub-Gaussian pull model). Must be
  // in (0, 1).
  double delta = 0.05;
  // Budget backstop: identification never draws more than
  // max_pulls_per_arm * num_arms pulls in total; at least 2, the
  // round-robin warm-up every arm gets. Exhaustion is reported via
  // Certificate::stopped == false and keeps all non-eliminated arms.
  int64_t max_pulls_per_arm = 64;
};

// The auditable record of one identification run.
struct Certificate {
  std::vector<int64_t> pulls;       // Per-arm pull counts.
  int64_t total_pulls = 0;
  bool stopped = false;             // GLR threshold reached before budget.
  double stopping_statistic = 0.0;  // Z(t) at termination.
  double threshold = 0.0;           // Beta(t, delta) at termination.
};

struct TopKOutcome {
  // The identified top-k arms, best empirical mean first (ties by index).
  std::vector<int64_t> top;
  // Survivors handed to exact evaluation: exactly the empirical top-k on
  // a confident stop, all non-eliminated arms (>= k) on budget
  // exhaustion.
  std::vector<bool> keep;
  Certificate certificate;
};

class TopKIdentifier {
 public:
  explicit TopKIdentifier(IdentifyOptions options);

  // Runs identification over `num_arms` arms. A pull of arm i draws
  // sampler(i, stream_i) where stream_i is the arm's private seed-derived
  // generator. Deterministic per (num_arms, seed, sampler).
  TopKOutcome Identify(
      int64_t num_arms, uint64_t seed,
      const std::function<double(int64_t, Rng&)>& sampler) const;

  // As above with per-arm support sizes (empty = unbounded). Arm i's
  // sampler must cycle through its support[i] distinct values without
  // replacement, so its mean is exact once count reaches support[i] (the
  // freeze rule in the header comment).
  TopKOutcome Identify(int64_t num_arms, uint64_t seed,
                       const std::function<double(int64_t, Rng&)>& sampler,
                       const std::vector<int64_t>& support) const;

 private:
  IdentifyOptions options_;
};

}  // namespace bai
}  // namespace vaq

#endif  // VAQ_BAI_TOP_K_IDENTIFIER_H_
