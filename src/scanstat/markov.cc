#include "scanstat/markov.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/rng.h"

namespace vaq {
namespace scanstat {
namespace {

double ClampUnit(double x) { return std::min(1.0, std::max(0.0, x)); }

// Exact P(S_w(n) < k) by DP over the last-w-outcomes bitmask. The lowest
// bit of the mask is the most recent outcome (which is also the Markov
// state).
double ExactMarkovNoHitDp(int64_t k, const MarkovParams& params, int64_t w,
                          int64_t n) {
  const uint64_t num_states = uint64_t{1} << w;
  const uint64_t mask_all = num_states - 1;
  std::vector<double> prob(num_states, 0.0);
  std::vector<double> next(num_states, 0.0);
  const double pi = params.Stationary();
  double hit = 0.0;
  // First trial from the stationary distribution.
  if (n >= 1) {
    if (k <= 1) {
      hit += pi;
      prob[0] = 1.0 - pi;
    } else {
      prob[1] = pi;
      prob[0] = 1.0 - pi;
    }
  } else {
    return 1.0;
  }
  for (int64_t t = 1; t < n; ++t) {
    std::fill(next.begin(), next.end(), 0.0);
    for (uint64_t m = 0; m < num_states; ++m) {
      const double pm = prob[m];
      if (pm == 0.0) continue;
      const double p1 = (m & 1u) != 0 ? params.p11 : params.p01;
      const uint64_t m0 = (m << 1) & mask_all;
      next[m0] += pm * (1.0 - p1);
      const uint64_t m1 = m0 | 1u;
      if (std::popcount(m1) >= k) {
        hit += pm * p1;
      } else {
        next[m1] += pm * p1;
      }
    }
    prob.swap(next);
  }
  return ClampUnit(1.0 - hit);
}

// Exact P(count of ones in one fixed window of length w >= k) for the
// chain started from its stationary distribution. DP over (ones so far,
// last outcome), O(w * k).
double SingleWindowCountTail(int64_t k, const MarkovParams& params,
                             int64_t w) {
  if (k <= 0) return 1.0;
  if (k > w) return 0.0;
  const size_t kk = static_cast<size_t>(k);
  // prob[c][s]: after t trials, c ones so far (clamped at k = absorbed
  // success), last outcome s.
  std::vector<std::array<double, 2>> prob(kk + 1, {0.0, 0.0});
  std::vector<std::array<double, 2>> next(kk + 1, {0.0, 0.0});
  const double pi = params.Stationary();
  prob[std::min<size_t>(1, kk)][1] = pi;
  prob[0][0] = 1.0 - pi;
  for (int64_t t = 1; t < w; ++t) {
    for (auto& row : next) row = {0.0, 0.0};
    for (size_t c = 0; c <= kk; ++c) {
      for (int s = 0; s < 2; ++s) {
        const double pm = prob[c][s];
        if (pm == 0.0) continue;
        if (c == kk) {
          next[kk][s] += pm;  // Absorbed: k reached.
          continue;
        }
        const double p1 = s == 1 ? params.p11 : params.p01;
        next[c][0] += pm * (1.0 - p1);
        next[std::min(c + 1, kk)][1] += pm * p1;
      }
    }
    prob.swap(next);
  }
  return ClampUnit(prob[kk][0] + prob[kk][1]);
}

// Exact probability that a *new* exceedance cluster starts at a given
// position: the window ending here reaches k while the window one step
// earlier did not. With the two windows sharing w-1 trials this event is
// exactly {X_j = 0, count(j+1 .. j+w-1) = k-1, X_{j+w} = 1}; computed by
// a DP over the w-1 middle trials tracking the exact count and the last
// state, started from the stationary probability of state 0.
double NewClusterRate(int64_t k, const MarkovParams& params, int64_t w) {
  if (k <= 0 || k > w) return 0.0;
  const size_t kk = static_cast<size_t>(k);
  const double pi = params.Stationary();
  // prob[c][s]: middle count so far == c (c == kk means "overshot": dead),
  // last outcome s. Start: X_j = 0 (weight 1 - pi), then w-1 middle
  // trials.
  std::vector<std::array<double, 2>> prob(kk + 1, {0.0, 0.0});
  std::vector<std::array<double, 2>> next(kk + 1, {0.0, 0.0});
  prob[0][0] = 1.0 - pi;  // The state of X_j itself (no middle trial yet).
  for (int64_t t = 0; t < w - 1; ++t) {
    for (auto& row : next) row = {0.0, 0.0};
    for (size_t c = 0; c < kk; ++c) {  // c == kk is dead.
      for (int s = 0; s < 2; ++s) {
        const double pm = prob[c][s];
        if (pm == 0.0) continue;
        const double p1 = s == 1 ? params.p11 : params.p01;
        next[c][0] += pm * (1.0 - p1);
        next[std::min(c + 1, kk)][1] += pm * p1;
      }
    }
    prob.swap(next);
  }
  if (kk == 0) return 0.0;
  // Final step: X_{j+w} = 1 from the last middle state, with middle count
  // exactly k-1.
  return prob[kk - 1][0] * params.p01 + prob[kk - 1][1] * params.p11;
}

}  // namespace

double MarkovParams::Stationary() const {
  const double denom = p01 + (1.0 - p11);
  if (denom <= 0.0) return 1.0;  // Absorbing in state 1.
  return p01 / denom;
}

double MarkovParams::Rho() const { return p11 - p01; }

MarkovParams MarkovParams::FromStationaryAndRho(double pi, double rho) {
  pi = ClampProbability(pi);
  // p01 = pi (1 - rho), p11 = rho + pi (1 - rho); clamp rho so both stay
  // in [0, 1]. Negative rho (alternating) is clamped at the feasibility
  // boundary too.
  const double max_rho = 1.0;
  const double min_rho =
      pi >= 1.0 || pi <= 0.0 ? 0.0 : -std::min(pi / (1 - pi), (1 - pi) / pi);
  rho = std::clamp(rho, min_rho, max_rho);
  MarkovParams params;
  params.p01 = ClampProbability(pi * (1.0 - rho));
  params.p11 = ClampProbability(rho + pi * (1.0 - rho));
  return params;
}

MarkovParams MarkovParams::Iid(double p) {
  MarkovParams params;
  params.p01 = p;
  params.p11 = p;
  return params;
}

double ExactMarkovScanTailDp(int64_t k, const MarkovParams& params,
                             int64_t w, int64_t n) {
  VAQ_CHECK_GE(w, 1);
  VAQ_CHECK_LE(w, 20);
  if (k <= 0) return 1.0;
  if (k > w || n < k) return 0.0;
  return ClampUnit(1.0 - ExactMarkovNoHitDp(k, params, w, n));
}

double MarkovScanTailProbability(int64_t k, const MarkovParams& params,
                                 int64_t w, double L) {
  VAQ_CHECK_GE(w, 1);
  if (k <= 0) return 1.0;
  if (k > w) return 0.0;
  const double pi = params.Stationary();
  if (pi <= 0.0) return 0.0;
  if (pi >= 1.0) return 1.0;
  const double eff_l = std::max(L, 2.0);

  if (w <= 16) {
    // Product-type extrapolation with exact Markov Q2, Q3 (the paper's
    // Naus structure with dependence-aware ingredients).
    const double q2 = ExactMarkovNoHitDp(k, params, w, 2 * w);
    if (q2 <= 0.0) return 1.0;
    const double q3 = ExactMarkovNoHitDp(k, params, w, 3 * w);
    const double ratio = ClampUnit(q3 / q2);
    const double log_no_hit =
        std::log(q2) + (eff_l - 2.0) * std::log(std::max(ratio, 1e-300));
    return ClampUnit(-std::expm1(log_no_hit));
  }

  // Wide windows: the classical declumped scan approximation
  //   P(S_w(N) >= k) ~= 1 - (1 - t_w) exp(-(N - w) theta),
  // with the first-window tail t_w and the new-cluster rate theta both
  // computed exactly for the chain (O(w k) DPs). This is the asymptotic
  // form underlying Naus' product formula, valid for any window width.
  const double t_w = SingleWindowCountTail(k, params, w);
  if (t_w >= 1.0) return 1.0;
  const double theta = NewClusterRate(k, params, w);
  const double n_trials = eff_l * static_cast<double>(w);
  const double log_no_hit = std::log1p(-t_w) -
                            std::max(0.0, n_trials - static_cast<double>(w)) *
                                theta;
  return ClampUnit(-std::expm1(log_no_hit));
}

double MonteCarloMarkovScanTail(int64_t k, const MarkovParams& params,
                                int64_t w, int64_t n, int64_t trials,
                                uint64_t seed) {
  VAQ_CHECK_GE(w, 1);
  VAQ_CHECK_GT(trials, 0);
  if (k <= 0) return 1.0;
  if (k > w || n < k) return 0.0;
  Rng rng(seed);
  std::vector<uint8_t> window(static_cast<size_t>(w), 0);
  const double pi = params.Stationary();
  int64_t hits = 0;
  for (int64_t trial = 0; trial < trials; ++trial) {
    std::fill(window.begin(), window.end(), 0);
    int64_t count = 0;
    bool hit = false;
    uint8_t prev = rng.Bernoulli(pi) ? 1 : 0;
    for (int64_t t = 0; t < n; ++t) {
      const uint8_t x =
          t == 0 ? prev
                 : (rng.Bernoulli(prev != 0 ? params.p11 : params.p01) ? 1
                                                                       : 0);
      prev = x;
      const size_t slot = static_cast<size_t>(t % w);
      count -= window[slot];
      window[slot] = x;
      count += x;
      if (count >= k) {
        hit = true;
        break;
      }
    }
    if (hit) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(trials);
}

int64_t MarkovCriticalValue(const MarkovParams& params,
                            const ScanConfig& config) {
  VAQ_CHECK_GE(config.window, 1);
  VAQ_CHECK_GT(config.alpha, 0.0);
  VAQ_CHECK_LT(config.alpha, 1.0);
  const int64_t w = config.window;
  const double L = config.L();
  return FirstSignificantCount(w, config.alpha, [&](int64_t k) {
    return MarkovScanTailProbability(k, params, w, L);
  });
}

}  // namespace scanstat
}  // namespace vaq
