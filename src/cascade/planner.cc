#include "cascade/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "detect/model_profile.h"
#include "obs/metrics.h"

namespace vaq {
namespace cascade {
namespace {

std::vector<std::string> QueryConcepts(
    const std::string& action, const std::vector<std::string>& objects) {
  std::vector<std::string> concepts;
  if (!action.empty()) concepts.push_back(ActionConcept(action));
  for (const std::string& object : objects) {
    concepts.push_back(ObjectConcept(object));
  }
  return concepts;
}

// The modeled expensive-tier bill for one clip of `video`: every object
// concept pays Mask R-CNN per frame, the action pays I3D per shot (the
// same occurrence-unit accounting as detect::ModelStats).
double ExpensiveClipMs(const ProxyVideoIndex& video, size_t num_objects,
                       bool has_action) {
  static const double detector_ms =
      detect::ModelProfile::MaskRcnn().inference_ms;
  static const double recognizer_ms = detect::ModelProfile::I3d().inference_ms;
  double ms =
      static_cast<double>(num_objects) * video.frames_per_clip * detector_ms;
  if (has_action) ms += video.shots_per_clip * recognizer_ms;
  return ms;
}

}  // namespace

double CascadePlan::CostReduction() const {
  if (!use_cascade || cascade_cost_ms <= 0.0) return 1.0;
  return full_cost_ms / cascade_cost_ms;
}

int64_t CascadePlan::WireBytes() const {
  // Tag + τ + costs + counts, then per threshold its key and value.
  int64_t bytes = 32;
  for (const ConceptThreshold& t : thresholds) {
    bytes += static_cast<int64_t>(t.concept_name.size()) + 16;
  }
  return bytes;
}

std::string CascadePlan::ToString() const {
  char buffer[256];
  if (!use_cascade) {
    std::snprintf(buffer, sizeof(buffer), "exact(recall_target=%.6g)",
                  recall_target);
    return buffer;
  }
  std::snprintf(buffer, sizeof(buffer),
                "cascade(recall_target=%.6g predicted_recall=%.6g "
                "clips=%lld/%lld cost_ms=%.6g->%.6g reduction=%.3gx",
                recall_target, predicted_recall,
                static_cast<long long>(clips_surviving),
                static_cast<long long>(clips_total), full_cost_ms,
                cascade_cost_ms, CostReduction());
  std::string out = buffer;
  for (const ConceptThreshold& t : thresholds) {
    std::snprintf(buffer, sizeof(buffer), " %s>=%.6g", t.concept_name.c_str(),
                  t.threshold);
    out += buffer;
  }
  out += ")";
  return out;
}

void CountPlan(const CascadePlan& plan) {
  if (plan.use_cascade) {
    static obs::Counter* const cascade = obs::MetricRegistry::Global()
        .GetCounter("vaq_cascade_plans_total", {{"mode", "cascade"}});
    cascade->Increment();
  } else {
    static obs::Counter* const exact = obs::MetricRegistry::Global()
        .GetCounter("vaq_cascade_plans_total", {{"mode", "exact"}});
    exact->Increment();
  }
}

Planner::Planner(const ProxySet* proxy) : proxy_(proxy) {
  VAQ_CHECK(proxy != nullptr);
}

StatusOr<CascadePlan> Planner::Plan(const std::string& action,
                                    const std::vector<std::string>& objects,
                                    double recall_target) const {
  VAQ_ASSIGN_OR_RETURN(const std::shared_ptr<const PlannedQuery> planned,
                       Lookup(action, objects, recall_target));
  return planned->plan;
}

StatusOr<std::shared_ptr<const PlannedQuery>> Planner::Lookup(
    const std::string& action, const std::vector<std::string>& objects,
    double recall_target) const {
  if (!(recall_target > 0.0) || recall_target > 1.0) {
    return Status::InvalidArgument("recall target must be in (0, 1]");
  }
  MemoKey key{QueryConcepts(action, objects), 0};
  if (key.first.empty()) {
    return Status::InvalidArgument("cascade query names no concepts");
  }
  static_assert(sizeof(key.second) == sizeof(recall_target),
                "double is 64-bit");
  std::memcpy(&key.second, &recall_target, sizeof(key.second));
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
  }
  // Plan outside the lock; a racing miss on the same key plans the same
  // bytes, and the first insert wins.
  std::shared_ptr<const PlannedQuery> planned =
      Build(key.first, objects.size(), !action.empty(), recall_target);
  std::lock_guard<std::mutex> lock(mu_);
  if (memo_.size() >= kMemoCapacity && memo_.count(key) == 0) memo_.clear();
  return memo_.try_emplace(std::move(key), std::move(planned)).first->second;
}

std::shared_ptr<const PlannedQuery> Planner::Build(
    const std::vector<std::string>& concepts, size_t num_objects,
    bool has_action, double recall_target) const {
  auto planned = std::make_shared<PlannedQuery>();
  CascadePlan& plan = planned->plan;
  plan.recall_target = recall_target;
  for (const auto& [name, video] : *proxy_) {
    (void)name;
    plan.clips_total += video.num_clips;
    plan.full_cost_ms +=
        static_cast<double>(video.num_clips) *
        ExpensiveClipMs(video, num_objects, has_action);
  }
  plan.clips_surviving = plan.clips_total;
  plan.cascade_cost_ms = plan.full_cost_ms;
  if (recall_target >= 1.0 || proxy_->empty()) {
    return planned;  // Exact: τ=1.0 admits no approximation.
  }

  // Per-concept targets: the conjunction survives iff every concept
  // does, and concept noise is independent, so τ^(1/n) each.
  const double per_concept =
      std::pow(recall_target,
               1.0 / static_cast<double>(concepts.size()));
  for (const std::string& concept_name : concepts) {
    std::vector<double> pooled;
    for (const auto& [name, video] : *proxy_) {
      (void)name;
      const ProxyColumn* column = video.Find(concept_name);
      if (column == nullptr) continue;
      pooled.insert(pooled.end(), column->heldout_positive.begin(),
                    column->heldout_positive.end());
    }
    ConceptThreshold threshold;
    threshold.concept_name = concept_name;
    if (!pooled.empty()) {
      std::sort(pooled.begin(), pooled.end());
      const auto m = static_cast<int64_t>(pooled.size());
      int64_t idx = static_cast<int64_t>(
          std::floor((1.0 - per_concept) * static_cast<double>(m)));
      idx = std::min(std::max<int64_t>(idx, 0), m - 1);
      threshold.threshold = pooled[static_cast<size_t>(idx)];
      threshold.heldout_recall =
          static_cast<double>(m - idx) / static_cast<double>(m);
    }
    plan.thresholds.push_back(threshold);
  }
  plan.predicted_recall = 1.0;
  for (const ConceptThreshold& t : plan.thresholds) {
    plan.predicted_recall *= t.heldout_recall;
  }

  // Bill the cascade from its surviving sets: one proxy call per clip
  // (already paid at ingest, charged here to keep the cost model
  // honest) plus the expensive tier on survivors only.
  std::unique_ptr<const PlanFilters> filters(
      new PlanFilters(proxy_, &plan.thresholds));
  plan.clips_surviving = filters->clips_surviving();
  plan.cascade_cost_ms = 0.0;
  const double proxy_ms = detect::ModelProfile::ProxyCnn().inference_ms;
  for (const auto& [name, video] : *proxy_) {
    const IntervalSet* surviving = filters->SurvivingClips(name);
    const int64_t kept =
        surviving == nullptr ? video.num_clips : surviving->TotalLength();
    plan.cascade_cost_ms += static_cast<double>(video.num_clips) * proxy_ms;
    plan.cascade_cost_ms +=
        static_cast<double>(kept) *
        ExpensiveClipMs(video, num_objects, has_action);
  }

  // The cost-based decision proper: cascade only when it actually wins.
  plan.use_cascade = plan.cascade_cost_ms < plan.full_cost_ms;
  if (plan.use_cascade) {
    planned->filters = std::move(filters);
  } else {
    plan.clips_surviving = plan.clips_total;
    plan.cascade_cost_ms = plan.full_cost_ms;
    plan.predicted_recall = 1.0;
  }
  return planned;
}

PlanFilters::PlanFilters(const ProxySet* proxy, const CascadePlan& plan)
    : PlanFilters(proxy, plan.use_cascade ? &plan.thresholds : nullptr) {}

PlanFilters::PlanFilters(const ProxySet* proxy,
                         const std::vector<ConceptThreshold>* thresholds) {
  VAQ_CHECK(proxy != nullptr);
  std::vector<const ProxyColumn*> columns;
  std::vector<bool> keep;
  for (const auto& [name, video] : *proxy) {
    clips_total_ += video.num_clips;
    columns.clear();
    if (thresholds != nullptr) {
      for (const ConceptThreshold& t : *thresholds) {
        const ProxyColumn* column = video.Find(t.concept_name);
        if (column == nullptr ||
            static_cast<int64_t>(column->scores.size()) != video.num_clips) {
          break;
        }
        columns.push_back(column);
      }
    }
    if (thresholds == nullptr || columns.size() != thresholds->size()) {
      clips_surviving_ += video.num_clips;  // Unconstrained video.
      continue;
    }
    keep.assign(static_cast<size_t>(video.num_clips), true);
    for (size_t i = 0; i < columns.size(); ++i) {
      const double threshold = (*thresholds)[i].threshold;
      for (size_t clip = 0; clip < keep.size(); ++clip) {
        if (columns[i]->scores[clip] < threshold) keep[clip] = false;
      }
    }
    IntervalSet surviving = IntervalSet::FromIndicators(keep);
    clips_surviving_ += surviving.TotalLength();
    surviving_.emplace_hint(surviving_.end(), name, std::move(surviving));
  }
}

const IntervalSet* PlanFilters::SurvivingClips(
    const std::string& video) const {
  const auto it = surviving_.find(video);
  return it == surviving_.end() ? nullptr : &it->second;
}

}  // namespace cascade
}  // namespace vaq
