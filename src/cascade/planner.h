// Cost-based cascade planner (DESIGN.md §14).
//
// Given a conjunctive query (action + objects) and a recall target τ
// from the WITH RECALL clause, the planner calibrates one proxy-score
// threshold per concept from the held-out samples in the proxy index
// and decides between two physical plans:
//
//   exact    — today's pipeline, untouched. Chosen when τ = 1.0, when
//              no proxy index covers the query, or when the cascade's
//              modeled cost is not actually lower.
//   cascade  — proxy pre-filter first: only clips whose proxy score
//              clears EVERY concept's threshold reach the expensive
//              models. Per-concept targets are τ^(1/n) so the product
//              of per-concept recalls meets τ (concept noise is drawn
//              independently at ingest).
//
// Thresholds are order statistics of the pooled held-out positives —
// the score at quantile (1 − r) — so a fraction r of known positives
// survives by construction; `predicted_recall` is the product of the
// per-concept held-out survival fractions. Modeled costs use the same
// ModelProfile::inference_ms accounting as the rest of the repo, priced
// with the paper's stack: the exact plan pays every clip's frames ×
// MaskRcnn() ms (per object) plus shots × I3d() ms; the cascade pays one
// ProxyCnn() call per clip plus the expensive bill on surviving clips
// only.
//
// Everything here is a pure function of (proxy index, query, τ):
// plans, thresholds and surviving-clip sets are byte-identical across
// shards, threads and re-runs — which is what lets a Planner memoize
// them.
#ifndef VAQ_CASCADE_PLANNER_H_
#define VAQ_CASCADE_PLANNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cascade/proxy_index.h"
#include "common/interval.h"
#include "common/status.h"
#include "offline/rvaq.h"

namespace vaq {
namespace cascade {

// One calibrated per-concept threshold.
struct ConceptThreshold {
  std::string concept_name;          // "act:..." / "obj:..."
  double threshold = 0.0;       // Keep clips with score >= threshold.
  double heldout_recall = 1.0;  // Held-out survival fraction.
};

struct CascadePlan {
  double recall_target = 1.0;
  // false: execute the exact path (no filters, no new counters).
  bool use_cascade = false;
  std::vector<ConceptThreshold> thresholds;
  double predicted_recall = 1.0;
  // Modeled inference bills over the planned scope, in simulated ms.
  double full_cost_ms = 0.0;
  double cascade_cost_ms = 0.0;
  int64_t clips_total = 0;
  int64_t clips_surviving = 0;
  // full / cascade; 1.0 for exact plans.
  double CostReduction() const;
  // Serialized size when the coordinator ships the plan to shards,
  // modeled like the cluster's per-entry wire bytes (cluster/node.cc).
  int64_t WireBytes() const;
  // One-line human rendering for vaqctl / EXPLAIN output.
  std::string ToString() const;
};

// Counts one planned statement in vaq_cascade_plans_total{mode=...}
// ("cascade" or "exact"). Each mode resolves its counter on first use.
void CountPlan(const CascadePlan& plan);

// The execution-side face of a plan: resolves, per video, the clips
// whose proxy scores clear every concept threshold. Surviving sets are
// materialized eagerly at construction (read-only afterwards, safe to
// share across shards). Videos with no proxy column for some queried
// concept are unconstrained — the cascade never silently drops a video
// it cannot score.
class PlanFilters : public offline::ClipFilterProvider {
 public:
  PlanFilters(const ProxySet* proxy, const CascadePlan& plan);

  const IntervalSet* SurvivingClips(
      const std::string& video) const override;

  int64_t clips_total() const { return clips_total_; }
  int64_t clips_surviving() const { return clips_surviving_; }

 private:
  friend class Planner;
  // The one survivor pass: the planner prices a candidate plan from the
  // sets it builds, and the same sets execute the plan. A null
  // `thresholds` (an exact plan) leaves every video unconstrained.
  PlanFilters(const ProxySet* proxy,
              const std::vector<ConceptThreshold>* thresholds);

  std::map<std::string, IntervalSet> surviving_;
  int64_t clips_total_ = 0;
  int64_t clips_surviving_ = 0;
};

// A plan together with the surviving sets that execute it. Immutable
// and shared: a statement holding one stays valid after the planner's
// memo has dropped it.
struct PlannedQuery {
  CascadePlan plan;
  // Null unless plan.use_cascade.
  std::unique_ptr<const PlanFilters> filters;
};

// A long-lived planner over one proxy set. A plan is a pure function of
// (proxy set, concepts, τ), so each distinct (concepts, τ) is planned
// once and later requests are a memo lookup. The memo holds at most
// kMemoCapacity plans and is cleared when full. Thread-safe.
class Planner {
 public:
  static constexpr size_t kMemoCapacity = 16;

  // `proxy` must outlive the planner and any PlanFilters built from its
  // plans, and must not change while the planner exists: memoized plans
  // would describe the old set. Build a new planner after changing it.
  explicit Planner(const ProxySet* proxy);

  // Plans one conjunctive query. kInvalidArgument when the query names
  // no concepts or τ is outside (0, 1]. A τ of 1.0, or a proxy set with
  // no coverage of the query, yields an exact plan.
  StatusOr<CascadePlan> Plan(const std::string& action,
                             const std::vector<std::string>& objects,
                             double recall_target) const;

  // Plan() without the copy, plus the plan's surviving sets. The memo
  // key is the ordered concept list (duplicates kept) and the bit
  // pattern of τ.
  StatusOr<std::shared_ptr<const PlannedQuery>> Lookup(
      const std::string& action, const std::vector<std::string>& objects,
      double recall_target) const;

 private:
  using MemoKey = std::pair<std::vector<std::string>, uint64_t>;

  // The planning proper, run on a memo miss.
  std::shared_ptr<const PlannedQuery> Build(
      const std::vector<std::string>& concepts, size_t num_objects,
      bool has_action, double recall_target) const;

  const ProxySet* proxy_;
  mutable std::mutex mu_;  // Guards memo_.
  mutable std::map<MemoKey, std::shared_ptr<const PlannedQuery>> memo_;
};

}  // namespace cascade
}  // namespace vaq

#endif  // VAQ_CASCADE_PLANNER_H_
