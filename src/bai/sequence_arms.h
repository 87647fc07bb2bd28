// offline::SequenceIdentifier implemented over bai::TopKIdentifier.
//
// Arm model (ROADMAP "confidence-driven adaptive sampling"): each
// candidate sequence of one video is an arm. One pull samples a uniformly
// chosen clip of the arm's interval through the query's shared
// ClipScoreSource — a seeded model invocation that charges a real random
// access per unknown table entry, with repeats served from cache — and
// scales the clip score by the interval length, so the arm's pull mean is
// an unbiased estimate of the additive sequence score (Eq. 9 summed over
// the extent, PaperScoring's f). Identification then hands the surviving
// arms back to RVAQ's exact bound loop for byte-stable final ranking.
#ifndef VAQ_BAI_SEQUENCE_ARMS_H_
#define VAQ_BAI_SEQUENCE_ARMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bai/top_k_identifier.h"
#include "common/interval.h"
#include "offline/rvaq.h"

namespace vaq {
namespace bai {

// Base seed of every WITH CONFIDENCE statement (query::RankedStatement
// sets it; offline::ScopeToVideo derives each video's stream seed from
// it, so single-node and sharded execution pull identical streams for the
// same video). Part of the determinism contract.
inline constexpr uint64_t kQueryBaseSeed = 0x51e8c7b9325fa60dULL;

// Deterministic rendering of the certificate summary surfaced in
// query::QueryResult::bai_certificate and DescribeServedQuery.
std::string RenderCertificate(double delta, int64_t pulls,
                              int64_t arms_eliminated, bool stopped,
                              double stopping_statistic);

// Certificate summary for a fan-out run (repository / cluster): sums over
// the per-video identifications plus the count of confident stops.
std::string RenderAggregateCertificate(double delta, int64_t pulls,
                                       int64_t arms_eliminated,
                                       int64_t stops);

class SequenceArms : public offline::SequenceIdentifier {
 public:
  // `options.k` is overridden per call by the query's k.
  explicit SequenceArms(IdentifyOptions options);

  // Convenience: defaults with the given confidence.
  static SequenceArms AtConfidence(double delta) {
    IdentifyOptions options;
    options.delta = delta;
    return SequenceArms(options);
  }

  offline::IdentifyOutcome Identify(
      const std::vector<Interval>& candidates, int64_t k, uint64_t seed,
      offline::ClipScoreSource* source) const override;

 private:
  IdentifyOptions options_;
};

}  // namespace bai
}  // namespace vaq

#endif  // VAQ_BAI_SEQUENCE_ARMS_H_
