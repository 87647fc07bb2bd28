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

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
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

// The global merge of a ranked statement, shared by Repository::TopK and
// the cluster gather so both keep the same winners by construction. A
// candidate's position is any integer that orders it as the single-node
// loop appends candidates — video name, then per-video rank — and the
// merge keeps the k best by (RankedMergeScore descending, position
// ascending): exactly what a stable sort of the appended candidates by
// descending score, truncated to k, keeps. Candidates may be offered in
// any order; a candidate's value is built only when it enters.
template <typename T>
class RankedMerge {
 public:
  explicit RankedMerge(int64_t k) : k_(k > 0 ? static_cast<size_t>(k) : 0) {
    // Room for common LIMITs up front; a larger k grows as winners enter.
    kept_.reserve(std::min<size_t>(k_, 64));
  }

  // Offers a candidate. `make()` builds its value only when it is among
  // the k best so far; it then evicts the worst kept one when k are kept.
  template <typename Make>
  void Offer(double score, uint64_t position, Make make) {
    const Key key{score, position};
    if (kept_.size() < k_) {
      kept_.push_back(Kept{key, make()});
      std::push_heap(kept_.begin(), kept_.end(), HeapOrder);
    } else if (k_ > 0 && Better(key, kept_.front().key)) {
      std::pop_heap(kept_.begin(), kept_.end(), HeapOrder);
      kept_.back() = Kept{key, make()};
      std::push_heap(kept_.begin(), kept_.end(), HeapOrder);
    }
  }

  bool full() const { return k_ > 0 && kept_.size() == k_; }
  // The lowest score kept (the k-th best so far); valid when full().
  double worst_score() const { return kept_.front().key.score; }

  // The kept values, best first. Ends the merge.
  std::vector<T> Take() {
    std::sort_heap(kept_.begin(), kept_.end(), HeapOrder);
    std::vector<T> out;
    out.reserve(kept_.size());
    for (Kept& kept : kept_) out.push_back(std::move(kept.value));
    kept_.clear();
    return out;
  }

 private:
  struct Key {
    double score;
    uint64_t position;
  };
  struct Kept {
    Key key;
    T value;
  };
  static bool Better(const Key& a, const Key& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.position < b.position;
  }
  // A max-heap under this order holds the worst kept candidate in front.
  static bool HeapOrder(const Kept& a, const Kept& b) {
    return Better(a.key, b.key);
  }

  size_t k_;
  std::vector<Kept> kept_;
};

// One video's contribution to a repository query: binds the conjunctive
// query by type names and runs RVAQ. kNotFound means the video did not
// ingest one of the queried types (callers count it as skipped).
StatusOr<TopKResult> QueryVideoTopK(const storage::VideoIndex& index,
                                    const std::string& action,
                                    const std::vector<std::string>& objects,
                                    const ScoringModel& scoring,
                                    RvaqOptions options);

// The per-video step of every ranked statement (RankedScan::Video and
// query::Session::Run on one video): narrows `options` to video `name`. The
// prefilter's surviving clips become `clip_filter`, and the identifier's
// base seed the video's own (PerVideoIdentifierSeed). Returns false,
// counting vaq_cascade_videos_pruned_total, when the prefilter rules out
// every clip: the video is answered without binding a table.
bool ScopeToVideo(const std::string& name, RvaqOptions* options);

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
  // `options` are the statement's; each video runs them narrowed by
  // ScopeToVideo.
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

  // Bumped by every Add and by every Remove that drops a video, so a
  // holder of resolved videos (cluster::Coordinator) can tell that they
  // may be stale.
  uint64_t generation() const { return generation_; }

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
  uint64_t generation_ = 0;
};

}  // namespace offline
}  // namespace vaq

#endif  // VAQ_OFFLINE_REPOSITORY_H_
