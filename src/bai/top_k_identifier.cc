#include "bai/top_k_identifier.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace vaq {
namespace bai {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Round-robin warmup pulls per arm before the tracking rule engages
// (2, so every arm has a variance estimate).
constexpr int64_t kInitPullsPerArm = 2;
// Floor on the pooled standard deviation, guarding the GLR statistic
// against degenerate (constant-pull) arms.
constexpr double kMinStddev = 1e-3;

}  // namespace

TopKIdentifier::TopKIdentifier(IdentifyOptions options) : options_(options) {
  VAQ_CHECK_GE(options_.k, 1);
  VAQ_CHECK_GT(options_.delta, 0.0);
  VAQ_CHECK_LE(options_.delta, 1.0);
  VAQ_CHECK_GE(options_.max_pulls_per_arm, kInitPullsPerArm);
}

TopKOutcome TopKIdentifier::Identify(
    int64_t num_arms, uint64_t seed,
    const std::function<double(int64_t, Rng&)>& sampler) const {
  return Identify(num_arms, seed, sampler, {});
}

TopKOutcome TopKIdentifier::Identify(
    int64_t num_arms, uint64_t seed,
    const std::function<double(int64_t, Rng&)>& sampler,
    const std::vector<int64_t>& support) const {
  const int64_t k = options_.k;
  TopKOutcome out;
  VAQ_CHECK(support.empty() ||
            static_cast<int64_t>(support.size()) == num_arms);

  // Nothing to separate: every arm is trivially in the top-k.
  if (num_arms <= k) {
    out.keep.assign(static_cast<size_t>(num_arms), true);
    for (int64_t a = 0; a < num_arms; ++a) out.top.push_back(a);
    out.certificate.pulls.assign(static_cast<size_t>(num_arms), 0);
    out.certificate.stopped = true;
    return out;
  }

  RandomVariables rvs(num_arms, seed);
  auto pull = [&](int64_t arm) {
    rvs.Record(arm, sampler(arm, rvs.stream(arm)));
  };
  // Finite-support arms freeze once fully sampled: the cycle mean is the
  // exact arm value, so their confidence radius is zero and further
  // pulls are pointless.
  auto frozen = [&](int64_t arm) {
    return !support.empty() &&
           rvs.Count(arm) >= support[static_cast<size_t>(arm)];
  };

  // Round-robin warmup so every arm has a mean and a variance estimate.
  for (int64_t round = 0; round < kInitPullsPerArm; ++round) {
    for (int64_t arm = 0; arm < num_arms; ++arm) {
      if (!frozen(arm)) pull(arm);
    }
  }

  const int64_t budget = options_.max_pulls_per_arm * num_arms;
  std::vector<bool> eliminated(static_cast<size_t>(num_arms), false);
  std::vector<int64_t> order;  // Active arms, best empirical mean first.
  bool stopped = false;
  double statistic = 0.0;
  double threshold = 0.0;

  for (;;) {
    // Active arms ordered by empirical mean, ties by index.
    order.clear();
    for (int64_t a = 0; a < num_arms; ++a) {
      if (!eliminated[static_cast<size_t>(a)]) order.push_back(a);
    }
    const int64_t active = static_cast<int64_t>(order.size());
    std::stable_sort(order.begin(), order.end(),
                     [&](int64_t a, int64_t b) {
                       return rvs.Mean(a) > rvs.Mean(b);
                     });

    const double t = static_cast<double>(rvs.total_pulls());
    threshold = std::log(static_cast<double>(num_arms) / options_.delta) +
                std::log(1.0 + std::log(t));
    const double sigma2 =
        std::max(rvs.PooledVariance(), kMinStddev * kMinStddev);

    // Eliminations never go below the k survivors, so active == k means
    // every other arm is already confidently out.
    if (active == k) {
      stopped = true;
      break;
    }

    // GLR statistic: the least certified (in, out) pair. The same pair is
    // the sampling rule's target — track-and-stop spends pulls exactly
    // where the certificate is weakest.
    double min_z = kInf;
    int64_t crit_in = order[static_cast<size_t>(k - 1)];
    int64_t crit_out = order[static_cast<size_t>(k)];
    for (int64_t i = 0; i < k; ++i) {
      const int64_t in = order[static_cast<size_t>(i)];
      for (int64_t j = k; j < active; ++j) {
        const int64_t outside = order[static_cast<size_t>(j)];
        const double gap = rvs.Mean(in) - rvs.Mean(outside);
        // A frozen arm contributes no uncertainty; a pair of frozen arms
        // with a positive gap is certified outright.
        const double inv =
            (frozen(in) ? 0.0 : 1.0 / static_cast<double>(rvs.Count(in))) +
            (frozen(outside)
                 ? 0.0
                 : 1.0 / static_cast<double>(rvs.Count(outside)));
        double z = 0.0;
        if (gap > 0.0) {
          z = inv > 0.0 ? gap * gap / (2.0 * sigma2 * inv) : kInf;
        }
        if (z < min_z) {
          min_z = z;
          crit_in = in;
          crit_out = outside;
        }
      }
    }
    statistic = min_z;
    if (min_z >= threshold) {
      stopped = true;
      break;
    }

    // Eliminate arms whose upper confidence bound sits below the k-th
    // highest lower confidence bound: they cannot re-enter the top-k at
    // confidence δ. Radii shrink as 1/sqrt(N), so the k best arms always
    // survive (their UCB >= their LCB >= the k-th LCB).
    std::vector<double> lcbs;
    lcbs.reserve(static_cast<size_t>(active));
    for (const int64_t a : order) {
      const double radius =
          frozen(a) ? 0.0
                    : std::sqrt(2.0 * sigma2 * threshold /
                                static_cast<double>(rvs.Count(a)));
      lcbs.push_back(rvs.Mean(a) - radius);
    }
    std::vector<double> sorted_lcbs = lcbs;
    std::nth_element(sorted_lcbs.begin(), sorted_lcbs.begin() + (k - 1),
                     sorted_lcbs.end(), std::greater<double>());
    const double lcb_k = sorted_lcbs[static_cast<size_t>(k - 1)];
    for (int64_t j = k; j < active; ++j) {
      const int64_t outside = order[static_cast<size_t>(j)];
      const double radius =
          frozen(outside) ? 0.0
                          : std::sqrt(2.0 * sigma2 * threshold /
                                      static_cast<double>(rvs.Count(outside)));
      if (rvs.Mean(outside) + radius < lcb_k) {
        eliminated[static_cast<size_t>(outside)] = true;
      }
    }

    // Pull the critical pair's unfrozen members. Both frozen means the
    // binding pair is an exact tie — no number of pulls resolves it, so
    // the conservative (budget-style) epilogue keeps both.
    const int64_t need = (frozen(crit_in) ? 0 : 1) + (frozen(crit_out) ? 0 : 1);
    if (need == 0) break;
    if (rvs.total_pulls() + need > budget) break;
    if (!frozen(crit_in)) pull(crit_in);
    if (!frozen(crit_out)) pull(crit_out);
  }

  out.top.assign(order.begin(), order.begin() + static_cast<size_t>(k));
  out.keep.assign(static_cast<size_t>(num_arms), false);
  if (stopped) {
    for (const int64_t a : out.top) out.keep[static_cast<size_t>(a)] = true;
  } else {
    // `order` was snapshot before this iteration's eliminations, so read
    // the elimination mask directly — an arm ruled out in the final
    // iteration stays out.
    for (int64_t a = 0; a < num_arms; ++a) {
      if (!eliminated[static_cast<size_t>(a)]) {
        out.keep[static_cast<size_t>(a)] = true;
      }
    }
  }
  out.certificate.pulls.resize(static_cast<size_t>(num_arms));
  for (int64_t a = 0; a < num_arms; ++a) {
    out.certificate.pulls[static_cast<size_t>(a)] = rvs.Count(a);
  }
  out.certificate.total_pulls = rvs.total_pulls();
  out.certificate.stopped = stopped;
  out.certificate.stopping_statistic = statistic;
  out.certificate.threshold = threshold;
  return out;
}

}  // namespace bai
}  // namespace vaq
