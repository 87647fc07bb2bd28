#include "cascade/proxy_index.h"

#include <algorithm>
#include <cmath>

#include "ckpt/serializer.h"
#include "common/rng.h"
#include "video/layout.h"

namespace vaq {
namespace cascade {
namespace {

// Distinct salt per derivation so proxy scores never correlate with the
// detector noise drawn from the same master seed.
constexpr uint64_t kProxySalt = 0x70726f7879ULL;    // "proxy"
constexpr uint64_t kHeldoutSalt = 0x68656c64ULL;    // "held"
// Fraction of truth-positive clips reserved for threshold calibration.
constexpr double kHeldoutFraction = 0.3;
// Score shapes: positives concentrate high (u^0.4), negatives low
// (u^2.5), with overlapping supports — the proxy is cheap, not good.
constexpr double kPositiveExponent = 0.4;
constexpr double kNegativeExponent = 2.5;

// Version byte folded into the fingerprint: bump when the score
// derivation changes, so persisted indexes self-invalidate.
constexpr uint64_t kScoreDerivationVersion = 1;

uint64_t HashConcept(const std::string& concept_name) {
  return HashBytes(concept_name);
}

// Clip-level presence of a concept: any truth frame inside the clip.
std::vector<bool> ClipIndicators(const IntervalSet& frames,
                                 const VideoLayout& layout) {
  std::vector<bool> present(static_cast<size_t>(layout.NumClips()), false);
  for (const Interval& iv : frames.intervals()) {
    if (iv.empty()) continue;
    const int64_t lo = layout.FrameToClip(iv.lo);
    const int64_t hi = layout.FrameToClip(iv.hi);
    for (int64_t clip = lo; clip <= hi && clip < layout.NumClips(); ++clip) {
      present[static_cast<size_t>(clip)] = true;
    }
  }
  return present;
}

ProxyColumn BuildColumn(const std::string& concept_name,
                        const IntervalSet& truth_frames,
                        const VideoLayout& layout, uint64_t seed) {
  ProxyColumn column;
  column.concept_name = concept_name;
  const std::vector<bool> present = ClipIndicators(truth_frames, layout);
  const uint64_t base = MixSeed(MixSeed(seed, kProxySalt),
                                HashConcept(concept_name));
  const uint64_t held_base = MixSeed(MixSeed(seed, kHeldoutSalt),
                                     HashConcept(concept_name));
  column.scores.reserve(present.size());
  for (size_t clip = 0; clip < present.size(); ++clip) {
    Rng rng(MixSeed(base, static_cast<uint64_t>(clip)));
    const double u = rng.UniformDouble();
    const double score =
        present[clip] ? 0.25 + 0.75 * std::pow(u, kPositiveExponent)
                      : 0.75 * std::pow(u, kNegativeExponent);
    column.scores.push_back(score);
    if (present[clip]) {
      Rng held(MixSeed(held_base, static_cast<uint64_t>(clip)));
      if (held.Bernoulli(kHeldoutFraction)) {
        column.heldout_positive.push_back(score);
      }
    }
  }
  std::sort(column.heldout_positive.begin(), column.heldout_positive.end());
  return column;
}

}  // namespace

std::string ActionConcept(const std::string& name) { return "act:" + name; }
std::string ObjectConcept(const std::string& name) { return "obj:" + name; }

const ProxyColumn* ProxyVideoIndex::Find(const std::string& concept_name) const {
  for (const ProxyColumn& column : columns) {
    if (column.concept_name == concept_name) return &column;
  }
  return nullptr;
}

uint64_t ProxyFingerprint(const detect::ModelProfile& profile,
                          uint64_t seed) {
  uint64_t fp = MixSeed(kScoreDerivationVersion,
                        static_cast<uint64_t>(ckpt::kFormatVersion));
  fp = MixSeed(fp, HashBytes(profile.name));
  // The profile fields that shape scores or costs, as exact bits.
  for (const double field : {profile.tpr, profile.fpr, profile.threshold,
                             profile.inference_ms}) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(field), "double is 64-bit");
    __builtin_memcpy(&bits, &field, sizeof(bits));
    fp = MixSeed(fp, bits);
  }
  return MixSeed(fp, seed);
}

ProxyVideoIndex BuildProxyIndex(const std::string& video,
                                const synth::Scenario& scenario,
                                const detect::ModelProfile& profile,
                                uint64_t seed) {
  const VideoLayout& layout = scenario.layout();
  const synth::GroundTruth& truth = scenario.truth();
  const Vocabulary& vocab = scenario.vocab();
  ProxyVideoIndex index;
  index.video = video;
  index.num_clips = layout.NumClips();
  index.frames_per_clip = static_cast<double>(layout.frames_per_clip());
  index.shots_per_clip = static_cast<double>(layout.frames_per_clip()) /
                         static_cast<double>(layout.frames_per_shot());
  index.fingerprint = ProxyFingerprint(profile, seed);
  for (ActionTypeId id = 0; id < vocab.num_action_types(); ++id) {
    index.columns.push_back(
        BuildColumn(ActionConcept(vocab.ActionTypeName(id)),
                    truth.ActionFrames(id), layout, seed));
  }
  for (ObjectTypeId id = 0; id < vocab.num_object_types(); ++id) {
    index.columns.push_back(
        BuildColumn(ObjectConcept(vocab.ObjectTypeName(id)),
                    truth.ObjectFrames(id), layout, seed));
  }
  std::sort(index.columns.begin(), index.columns.end(),
            [](const ProxyColumn& a, const ProxyColumn& b) {
              return a.concept_name < b.concept_name;
            });
  return index;
}

}  // namespace cascade
}  // namespace vaq
