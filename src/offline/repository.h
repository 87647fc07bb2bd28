// Repository-wide ranked retrieval.
//
// §4.2 notes that multiple videos are handled "by associating a video
// identifier to each clip identifier"; this module supplies that layer: a
// `Repository` of ingested videos answers one top-K query *globally*, by
// running RVAQ per video with the same K and merging the per-video
// winners (the global top-K is necessarily contained in the union of the
// per-video top-Ks, since scores do not interact across videos). Binding
// is by type *name*, so videos ingested with different vocabularies can
// coexist.
#ifndef VAQ_OFFLINE_REPOSITORY_H_
#define VAQ_OFFLINE_REPOSITORY_H_

#include <map>
#include <string>
#include <vector>

#include "offline/rvaq.h"
#include "storage/catalog.h"

namespace vaq {
namespace offline {

// Binds a conjunctive query to one ingested video by type names (the
// lookup used by the repository and the SQL session).
StatusOr<QueryTables> BindByName(const storage::VideoIndex& index,
                                 const std::string& action,
                                 const std::vector<std::string>& objects);

// The same bind written into `*out`, reusing its storage.
Status BindByName(const storage::VideoIndex& index, const std::string& action,
                  const std::vector<std::string>& objects, QueryTables* out);

// One globally-ranked result.
struct RepositoryRankedSequence {
  std::string video;  // Repository name of the source video.
  RankedSequence sequence;
};

// The merge key of the global sort: the exact score when RVAQ resolved
// one, the lower bound otherwise.
double RankedMergeScore(const RankedSequence& sequence);

// The global merge step of Repository::TopK, exposed so the cluster
// coordinator reproduces single-node results *by construction*: callers
// assemble candidates in (video name, per-video rank) order, and this
// stable-sorts by RankedMergeScore descending and truncates to `k`.
void MergeRankedCandidates(std::vector<RepositoryRankedSequence>* candidates,
                           int64_t k);

// One video's contribution to a repository query: binds the conjunctive
// query by type names and runs RVAQ. kNotFound means the video did not
// ingest one of the queried types (callers count it as skipped).
StatusOr<TopKResult> QueryVideoTopK(const storage::VideoIndex& index,
                                    const std::string& action,
                                    const std::vector<std::string>& objects,
                                    const ScoringModel& scoring,
                                    RvaqOptions options);

// The accounting of a ranked statement over some videos, summed per video.
struct RankedScanTotals {
  storage::AccessCounter accesses;
  int64_t videos_queried = 0;
  int64_t videos_skipped = 0;   // Videos missing a queried type.
  int64_t candidate_sequences = 0;
  // Cascade pre-filter accounting (0 on the exact path): videos whose
  // every clip the proxy ruled out, and candidate sequences dropped
  // inside queried videos.
  int64_t videos_pruned = 0;
  int64_t candidates_pruned = 0;
  // Adaptive-sampling accounting (0 when RvaqOptions::identifier is null).
  int64_t bai_pulls = 0;
  int64_t bai_arms_eliminated = 0;
  int64_t bai_stops = 0;  // Videos whose identification stopped confident.

  RankedScanTotals& operator+=(const RankedScanTotals& other);
};

// One ranked statement's per-video step, shared by Repository::TopK and
// cluster::Node::RunRanked so that both visit a video the same way. It
// owns the statement's RvaqWorkspace: every video binds its tables into
// it and runs RVAQ through it.
class RankedScan {
 public:
  // `scoring` and the hooks in `options` must outlive the scan.
  // `options.identifier_seed` is the statement's base seed; each video's
  // seed derives from its NAME, so visit order and shard layout cannot
  // move a video's pull streams.
  RankedScan(std::string action, std::vector<std::string> objects,
             const ScoringModel& scoring, RvaqOptions options);

  // Runs the statement on one video and folds its accounting into
  // `totals`. A video whose every clip the cascade prefilter ruled out is
  // pruned before any table is bound; one that did not ingest a queried
  // type is skipped. Returns the video's winners, best first (none when
  // pruned or skipped), valid until the next call.
  StatusOr<const std::vector<RankedSequence>*> Video(
      const std::string& name, const storage::VideoIndex& index,
      RankedScanTotals* totals);

 private:
  const std::string action_;
  const std::vector<std::string> objects_;
  const ScoringModel& scoring_;
  const RvaqOptions options_;
  const std::vector<RankedSequence> none_;
  RvaqWorkspace workspace_;
};

struct RepositoryTopKResult : RankedScanTotals {
  std::vector<RepositoryRankedSequence> top;  // Best first.
  double wall_ms = 0.0;
};

// A named collection of ingested videos.
class Repository {
 public:
  Repository() = default;

  // Registers (or replaces) a video. The repository stores the index.
  void Add(const std::string& name, storage::VideoIndex index);

  // Loads every video of a catalog.
  Status AddFromCatalog(const storage::Catalog& catalog);

  // Drops a video from the repository; false when absent.
  bool Remove(const std::string& name);

  size_t num_videos() const { return videos_.size(); }
  std::vector<std::string> VideoNames() const;
  const storage::VideoIndex* Find(const std::string& name) const;

  // Global top-K for a conjunctive query given by names. Videos that did
  // not ingest one of the queried types contribute no candidates (they
  // are counted in videos_skipped). `options.k` is the global K.
  StatusOr<RepositoryTopKResult> TopK(const std::string& action,
                                      const std::vector<std::string>& objects,
                                      const ScoringModel& scoring,
                                      RvaqOptions options) const;

 private:
  std::map<std::string, storage::VideoIndex> videos_;
};

}  // namespace offline
}  // namespace vaq

#endif  // VAQ_OFFLINE_REPOSITORY_H_
