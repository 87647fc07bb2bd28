#include "fault/fault_plan.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace vaq {
namespace fault {
namespace {

// Salts separating the plan's independent randomness streams.
constexpr uint64_t kCrashSalt = 0x6b7c8d9e1f2a3b4cULL;
constexpr uint64_t kCallSalt = 0x1a2b3c4d5e6f7081ULL;
constexpr uint64_t kDropSalt = 0x9d8c7b6a594837f2ULL;
constexpr uint64_t kNetDropSalt = 0x243f6a8885a308d3ULL;
constexpr uint64_t kNetDupSalt = 0x13198a2e03707344ULL;
constexpr uint64_t kNodeSalt = 0xa4093822299f31d0ULL;

// Stateless uniform in [0, 1) from a coordinate tuple.
double UniformAt(uint64_t seed, uint64_t salt, uint64_t a, uint64_t b) {
  uint64_t s = MixSeed(MixSeed(seed, salt ^ a), b);
  return static_cast<double>(SplitMix64(s) >> 11) * 0x1.0p-53;
}

}  // namespace

Status ValidateFaultSpec(const FaultSpec& spec) {
  const struct {
    const char* name;
    double value;
  } rates[] = {
      {"timeout_rate", spec.timeout_rate},
      {"crash_rate", spec.crash_rate},
      {"nan_score_rate", spec.nan_score_rate},
      {"out_of_range_score_rate", spec.out_of_range_score_rate},
      {"drop_clip_rate", spec.drop_clip_rate},
      {"net_drop_rate", spec.net_drop_rate},
      {"net_dup_rate", spec.net_dup_rate},
      {"node_outage_rate", spec.node_outage_rate},
  };
  for (const auto& rate : rates) {
    // NaN fails both comparisons' complements, so write the check as
    // "not inside [0, 1]" to reject it too.
    if (!(rate.value >= 0.0 && rate.value <= 1.0)) {
      return Status::InvalidArgument(std::string("fault spec: ") + rate.name +
                                     " must lie in [0, 1]");
    }
  }
  if (spec.crash_len_units <= 0) {
    return Status::InvalidArgument(
        "fault spec: crash_len_units must be positive");
  }
  if (spec.node_outage_len_ms <= 0) {
    return Status::InvalidArgument(
        "fault spec: node_outage_len_ms must be positive");
  }
  for (size_t i = 0; i < spec.windows.size(); ++i) {
    const ScheduledWindow& w = spec.windows[i];
    if (!(w.from_ms >= 0.0) || !(w.to_ms >= w.from_ms) ||
        !std::isfinite(w.to_ms)) {
      return Status::InvalidArgument(
          "fault spec: window " + std::to_string(i) +
          " must satisfy 0 <= from_ms <= to_ms < infinity");
    }
  }
  return Status::OK();
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "None";
    case FaultKind::kTimeout:
      return "Timeout";
    case FaultKind::kCrash:
      return "Crash";
    case FaultKind::kNanScore:
      return "NanScore";
    case FaultKind::kOutOfRangeScore:
      return "OutOfRangeScore";
  }
  return "Unknown";
}

FaultPlan::FaultPlan(FaultSpec spec, uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
  VAQ_CHECK_OK(ValidateFaultSpec(spec_));
}

StatusOr<FaultPlan> FaultPlan::Create(FaultSpec spec, uint64_t seed) {
  VAQ_RETURN_IF_ERROR(ValidateFaultSpec(spec));
  return FaultPlan(std::move(spec), seed);
}

bool FaultPlan::CrashActive(FaultDomain domain, int64_t unit) const {
  if (spec_.crash_rate <= 0.0) return false;
  const int64_t window = unit / spec_.crash_len_units;
  return UniformAt(seed_, kCrashSalt, static_cast<uint64_t>(domain),
                   static_cast<uint64_t>(window)) < spec_.crash_rate;
}

FaultKind FaultPlan::ProbeCall(FaultDomain domain, int64_t unit,
                               int64_t attempt) const {
  if (CrashActive(domain, unit)) return FaultKind::kCrash;
  const double u = UniformAt(
      seed_, kCallSalt, static_cast<uint64_t>(domain),
      static_cast<uint64_t>(unit) * 0x10001ULL + static_cast<uint64_t>(attempt));
  double bar = spec_.timeout_rate;
  if (u < bar) return FaultKind::kTimeout;
  bar += spec_.nan_score_rate;
  if (u < bar) return FaultKind::kNanScore;
  bar += spec_.out_of_range_score_rate;
  if (u < bar) return FaultKind::kOutOfRangeScore;
  return FaultKind::kNone;
}

bool FaultPlan::DropClip(int64_t clip) const {
  if (spec_.drop_clip_rate <= 0.0) return false;
  return UniformAt(seed_, kDropSalt, static_cast<uint64_t>(FaultDomain::kStream),
                   static_cast<uint64_t>(clip)) < spec_.drop_clip_rate;
}

bool FaultPlan::NetDrops(int64_t link, int64_t seq, int64_t attempt) const {
  if (spec_.net_drop_rate <= 0.0) return false;
  return UniformAt(seed_, kNetDropSalt, static_cast<uint64_t>(link),
                   static_cast<uint64_t>(seq) * 0x10001ULL +
                       static_cast<uint64_t>(attempt)) < spec_.net_drop_rate;
}

bool FaultPlan::NetDuplicates(int64_t link, int64_t seq) const {
  if (spec_.net_dup_rate <= 0.0) return false;
  return UniformAt(seed_, kNetDupSalt, static_cast<uint64_t>(link),
                   static_cast<uint64_t>(seq)) < spec_.net_dup_rate;
}

bool FaultPlan::NodeDown(int64_t node, double at_ms) const {
  for (const ScheduledWindow& w : spec_.windows) {
    if (w.domain == FaultDomain::kNode && (w.key < 0 || w.key == node) &&
        at_ms >= w.from_ms && at_ms < w.to_ms) {
      return true;
    }
  }
  if (spec_.node_outage_rate <= 0.0) return false;
  VAQ_CHECK_GT(spec_.node_outage_len_ms, 0);
  const int64_t window = static_cast<int64_t>(at_ms) / spec_.node_outage_len_ms;
  return UniformAt(seed_, kNodeSalt, static_cast<uint64_t>(FaultDomain::kNode) *
                                         0x9e37ULL +
                                         static_cast<uint64_t>(node),
                   static_cast<uint64_t>(window)) < spec_.node_outage_rate;
}

bool FaultPlan::NetPartitioned(double at_ms) const {
  for (const ScheduledWindow& w : spec_.windows) {
    if (w.domain == FaultDomain::kNetwork && at_ms >= w.from_ms &&
        at_ms < w.to_ms) {
      return true;
    }
  }
  return false;
}

double FaultPlan::PartitionClearMs(double at_ms) const {
  double t = at_ms;
  bool moved = true;
  while (moved) {
    moved = false;
    for (const ScheduledWindow& w : spec_.windows) {
      if (w.domain == FaultDomain::kNetwork && t >= w.from_ms &&
          t < w.to_ms) {
        t = w.to_ms;
        moved = true;
      }
    }
  }
  return t;
}

}  // namespace fault
}  // namespace vaq
