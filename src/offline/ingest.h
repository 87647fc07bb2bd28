// Ingestion phase (§4.2).
//
// Executed once when a video enters the repository, in a query-independent
// manner: for *every* object type and action type the deployed models
// support, the ingestor materializes
//
//   (a) the clip score table {cid, Score} (Eqs. 7-8, ordered by score),
//       using the object tracker's per-track scores for objects and the
//       action recognizer's per-shot scores for actions; and
//   (b) the type's individual sequences P_{o_i} / P_{a_j}: maximal runs of
//       clips whose single-type indicator fired, determined with SVAQD
//       exactly as in the online case.
//
// The result is a storage::VideoIndex, persistable through
// storage::Catalog.
#ifndef VAQ_OFFLINE_INGEST_H_
#define VAQ_OFFLINE_INGEST_H_

#include "common/status.h"
#include "detect/models.h"
#include "fault/fault_plan.h"
#include "offline/scoring.h"
#include "online/svaqd.h"
#include "storage/catalog.h"
#include "synth/ground_truth.h"
#include "video/vocabulary.h"

namespace vaq {
namespace offline {

// The per-type SVAQD runs that produce individual sequences use default
// SvaqdOptions, and only tracker detections scoring at least the tracker
// threshold enter the object tables (standard detector post-filtering,
// §2).
struct IngestOptions {
  // Fault injection (see src/fault/). When non-null, the per-type SVAQD
  // runs inherit this plan (model faults degrade individual sequences
  // gracefully). Not owned; null (default) disables.
  const fault::FaultPlan* fault_plan = nullptr;
};

class Ingestor {
 public:
  // `vocab` enumerates every type the models support; must outlive the
  // ingestor.
  Ingestor(const Vocabulary* vocab, const ScoringModel* scoring,
           IngestOptions options);

  // Processes one video with the given models. This is the expensive,
  // inference-heavy pass (once per video). Fails only for malformed
  // score rows.
  StatusOr<storage::VideoIndex> Ingest(
      const synth::GroundTruth& truth,
      const detect::ModelBundle& models) const;

 private:
  const Vocabulary* vocab_;
  const ScoringModel* scoring_;
  IngestOptions options_;
};

}  // namespace offline
}  // namespace vaq

#endif  // VAQ_OFFLINE_INGEST_H_
