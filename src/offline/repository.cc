#include "offline/repository.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace vaq {
namespace offline {

StatusOr<QueryTables> BindByName(const storage::VideoIndex& index,
                                 const std::string& action,
                                 const std::vector<std::string>& objects) {
  QueryTables out;
  VAQ_RETURN_IF_ERROR(BindByName(index, action, objects, &out));
  return out;
}

Status BindByName(const storage::VideoIndex& index, const std::string& action,
                  const std::vector<std::string>& objects, QueryTables* out) {
  out->num_clips = index.num_clips;
  out->tables.clear();
  out->sequences.clear();
  out->schema.has_action = false;
  // Every table is a singleton clause; clause vectors are rewritten in
  // place so a rebind reuses their storage.
  std::vector<std::vector<int>>& clauses = out->schema.clauses;
  const auto bind = [&](const storage::TypeIndex& entry) {
    const size_t t = out->tables.size();
    if (clauses.size() <= t) clauses.emplace_back();
    clauses[t].assign(1, static_cast<int>(t));
    out->tables.push_back(&entry.table);
    out->sequences.push_back(&entry.sequences);
  };
  for (const std::string& name : objects) {
    const storage::TypeIndex* entry = index.FindObjectByName(name);
    if (entry == nullptr) {
      return Status::NotFound("object type not ingested: " + name);
    }
    bind(*entry);
  }
  out->schema.num_objects = out->num_tables();
  if (!action.empty()) {
    const storage::TypeIndex* entry = index.FindActionByName(action);
    if (entry == nullptr) {
      return Status::NotFound("action type not ingested: " + action);
    }
    out->schema.has_action = true;
    bind(*entry);
  }
  clauses.resize(out->tables.size());
  if (out->num_tables() == 0) {
    return Status::InvalidArgument("query touches no tables");
  }
  return Status::OK();
}

double RankedMergeScore(const RankedSequence& sequence) {
  return sequence.has_exact ? sequence.exact_score : sequence.lower_bound;
}

void MergeRankedCandidates(std::vector<RepositoryRankedSequence>* candidates,
                           int64_t k) {
  // Merge: sort by exact score when available, lower bound otherwise.
  std::stable_sort(candidates->begin(), candidates->end(),
                   [](const RepositoryRankedSequence& a,
                      const RepositoryRankedSequence& b) {
                     return RankedMergeScore(a.sequence) >
                            RankedMergeScore(b.sequence);
                   });
  if (static_cast<int64_t>(candidates->size()) > k) {
    candidates->resize(static_cast<size_t>(k));
  }
}

StatusOr<TopKResult> QueryVideoTopK(const storage::VideoIndex& index,
                                    const std::string& action,
                                    const std::vector<std::string>& objects,
                                    const ScoringModel& scoring,
                                    RvaqOptions options) {
  VAQ_ASSIGN_OR_RETURN(QueryTables tables,
                       BindByName(index, action, objects));
  return Rvaq(&tables, &scoring, options).Run();
}

RankedScanTotals& RankedScanTotals::operator+=(const RankedScanTotals& other) {
  accesses += other.accesses;
  videos_queried += other.videos_queried;
  videos_skipped += other.videos_skipped;
  candidate_sequences += other.candidate_sequences;
  videos_pruned += other.videos_pruned;
  candidates_pruned += other.candidates_pruned;
  bai_pulls += other.bai_pulls;
  bai_arms_eliminated += other.bai_arms_eliminated;
  bai_stops += other.bai_stops;
  return *this;
}

RankedScan::RankedScan(std::string action, std::vector<std::string> objects,
                       const ScoringModel& scoring, RvaqOptions options)
    : action_(std::move(action)),
      objects_(std::move(objects)),
      scoring_(scoring),
      options_(options) {}

StatusOr<const std::vector<RankedSequence>*> RankedScan::Video(
    const std::string& name, const storage::VideoIndex& index,
    RankedScanTotals* totals) {
  RvaqOptions options = options_;
  if (options.prefilter != nullptr) {
    const IntervalSet* surviving = options.prefilter->SurvivingClips(name);
    if (surviving != nullptr && surviving->empty()) {
      // The proxy ruled out every clip: no table is even bound.
      ++totals->videos_pruned;
      static obs::Counter* const videos_pruned =
          obs::MetricRegistry::Global().GetCounter(
              "vaq_cascade_videos_pruned_total");
      videos_pruned->Increment(1);
      return &none_;
    }
    options.clip_filter = surviving;  // nullptr: unconstrained video.
  }
  if (options.identifier != nullptr) {
    options.identifier_seed =
        PerVideoIdentifierSeed(options_.identifier_seed, name);
  }
  const Status bound =
      BindByName(index, action_, objects_, workspace_.tables());
  if (!bound.ok()) {
    if (bound.code() == StatusCode::kNotFound) {
      ++totals->videos_skipped;  // This video cannot match the query.
      return &none_;
    }
    return bound;
  }
  const TopKResult& top =
      Rvaq(workspace_.tables(), &scoring_, options).Run(&workspace_);
  ++totals->videos_queried;
  totals->accesses += top.accesses;
  totals->candidate_sequences += static_cast<int64_t>(top.pq.size());
  totals->candidates_pruned += top.candidates_pruned;
  totals->bai_pulls += top.bai_pulls;
  totals->bai_arms_eliminated += top.bai_arms_eliminated;
  if (top.bai_stopped) ++totals->bai_stops;
  return &top.top;
}

void Repository::Add(const std::string& name, storage::VideoIndex index) {
  videos_.insert_or_assign(name, std::move(index));
}

Status Repository::AddFromCatalog(const storage::Catalog& catalog) {
  for (const std::string& name : catalog.ListVideos()) {
    VAQ_ASSIGN_OR_RETURN(storage::VideoIndex index, catalog.Load(name));
    Add(name, std::move(index));
  }
  return Status::OK();
}

bool Repository::Remove(const std::string& name) {
  return videos_.erase(name) > 0;
}

std::vector<std::string> Repository::VideoNames() const {
  std::vector<std::string> names;
  names.reserve(videos_.size());
  for (const auto& [name, index] : videos_) names.push_back(name);
  return names;
}

const storage::VideoIndex* Repository::Find(const std::string& name) const {
  auto it = videos_.find(name);
  return it == videos_.end() ? nullptr : &it->second;
}

StatusOr<RepositoryTopKResult> Repository::TopK(
    const std::string& action, const std::vector<std::string>& objects,
    const ScoringModel& scoring, RvaqOptions options) const {
  const auto start = std::chrono::steady_clock::now();
  if (videos_.empty()) {
    return Status::FailedPrecondition("repository holds no videos");
  }
  RepositoryTopKResult result;
  RankedScan scan(action, objects, scoring, options);
  for (const auto& [name, index] : videos_) {
    VAQ_ASSIGN_OR_RETURN(const std::vector<RankedSequence>* top,
                         scan.Video(name, index, &result));
    for (const RankedSequence& seq : *top) {
      result.top.push_back(RepositoryRankedSequence{name, seq});
    }
  }
  MergeRankedCandidates(&result.top, options.k);
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

}  // namespace offline
}  // namespace vaq
