#include "detect/resilient.h"

#include <limits>

#include "obs/query_trace.h"

namespace vaq {
namespace detect {
namespace internal_detect {
namespace {

const char* DomainName(fault::FaultDomain domain) {
  switch (domain) {
    case fault::FaultDomain::kDetector:
      return "detector";
    case fault::FaultDomain::kRecognizer:
      return "recognizer";
    default:
      return "other";
  }
}

}  // namespace

ResilientCore::ResilientCore(const fault::FaultPlan* plan,
                             fault::FaultDomain domain, fault::SimClock* clock,
                             const std::string& model_name)
    : plan_(plan), domain_(domain), clock_(clock) {
  if (plan_ == nullptr) return;  // Pass-through: no registry families.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  const std::string domain_name = DomainName(domain_);
  const auto call_counter = [&](const char* outcome) {
    return registry.GetCounter("vaq_model_calls_total",
                               {{"domain", domain_name},
                                {"model", model_name},
                                {"outcome", outcome}});
  };
  calls_ok_ = call_counter("ok");
  calls_timeout_ = call_counter("timeout");
  calls_outage_ = call_counter("outage");
  calls_invalid_ = call_counter("invalid_score");
  calls_breaker_open_ = call_counter("breaker_open");
  calls_failed_ = call_counter("abandoned");
  retries_ = registry.GetCounter(
      "vaq_model_retries_total",
      {{"domain", domain_name}, {"model", model_name}});
  breaker_opened_ = registry.GetCounter(
      "vaq_breaker_transitions_total",
      {{"domain", domain_name}, {"model", model_name}, {"to", "open"}});
  breaker_closed_ = registry.GetCounter(
      "vaq_breaker_transitions_total",
      {{"domain", domain_name}, {"model", model_name}, {"to", "closed"}});
}

void ResilientCore::CountCall(obs::Counter* counter, const char* outcome) {
  counter->Increment();
  const obs::QueryContext& ctx = obs::CurrentQueryContext();
  if (ctx.active()) {
    ctx.AddStat(std::string("model_calls_") + outcome, 1);
  }
}

double ResilientCore::Corrupt(double score, fault::FaultKind kind) {
  switch (kind) {
    case fault::FaultKind::kNanScore:
      return std::numeric_limits<double>::quiet_NaN();
    case fault::FaultKind::kOutOfRangeScore:
      return 1e6 * (score + 1.0);  // Far outside [0, 1].
    default:
      return score;
  }
}

double ResilientCore::Pow(double base, int64_t exp) {
  double out = 1.0;
  for (int64_t i = 0; i < exp; ++i) out *= base;
  return out;
}

}  // namespace internal_detect

ResilientObjectDetector::ResilientObjectDetector(ObjectDetector* inner,
                                                 const fault::FaultPlan* plan,
                                                 fault::SimClock* clock)
    : inner_(inner),
      core_(plan, fault::FaultDomain::kDetector, clock,
            inner->profile().name) {}

StatusOr<double> ResilientObjectDetector::MaxScore(ObjectTypeId type,
                                                   FrameIndex frame) {
  return core_.Observe(frame, inner_->profile().inference_ms,
                       &inner_->mutable_stats(),
                       [&] { return inner_->MaxScore(type, frame); });
}

ResilientActionRecognizer::ResilientActionRecognizer(
    ActionRecognizer* inner, const fault::FaultPlan* plan,
    fault::SimClock* clock)
    : inner_(inner),
      core_(plan, fault::FaultDomain::kRecognizer, clock,
            inner->profile().name) {}

StatusOr<double> ResilientActionRecognizer::Score(ActionTypeId type,
                                                  ShotIndex shot) {
  return core_.Observe(shot, inner_->profile().inference_ms,
                       &inner_->mutable_stats(),
                       [&] { return inner_->Score(type, shot); });
}

}  // namespace detect
}  // namespace vaq
