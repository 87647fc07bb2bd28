#include "offline/ingest.h"

#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vaq {
namespace offline {

Ingestor::Ingestor(const Vocabulary* vocab, const ScoringModel* scoring,
                   IngestOptions options)
    : vocab_(vocab), scoring_(scoring), options_(std::move(options)) {
  VAQ_CHECK(vocab != nullptr);
  VAQ_CHECK(scoring != nullptr);
}

StatusOr<storage::VideoIndex> Ingestor::Ingest(
    const synth::GroundTruth& truth,
    const detect::ModelBundle& models) const {
  VAQ_TRACE_SPAN("ingest/run");
  obs::Counter* metric_tables = obs::MetricRegistry::Global().GetCounter(
      "vaq_ingest_tables_built_total");
  const VideoLayout& layout = truth.layout();
  const int64_t num_clips = layout.NumClips();
  storage::VideoIndex index;
  index.video_id = truth.video_id();
  index.num_clips = num_clips;

  online::SvaqdOptions indicator_options;
  indicator_options.fault_plan = options_.fault_plan;

  // --- Object types: tracker-scored tables + SVAQD individual sequences.
  for (ObjectTypeId type = 0; type < vocab_->num_object_types(); ++type) {
    VAQ_TRACE_SPAN("ingest/object_table");
    storage::TypeIndex entry;
    entry.type_id = type;
    entry.type_name = vocab_->ObjectTypeName(type);

    std::vector<storage::ScoreTable::Row> rows(
        static_cast<size_t>(num_clips));
    std::vector<std::pair<FrameIndex, detect::TrackDetection>> detections;
    std::vector<double> scores;
    const double threshold = models.tracker->profile().threshold;
    for (ClipIndex c = 0; c < num_clips; ++c) {
      detections.clear();
      models.tracker->DetectRange(type, layout.ClipFrameRange(c),
                                  &detections);
      scores.clear();
      for (const auto& [frame, det] : detections) {
        if (det.score >= threshold) scores.push_back(det.score);
      }
      rows[static_cast<size_t>(c)] = {c,
                                      scoring_->AggregateTypeScores(scores)};
    }
    VAQ_ASSIGN_OR_RETURN(entry.table,
                         storage::ScoreTable::Build(std::move(rows)));
    metric_tables->Increment();

    // Individual sequences via a single-predicate SVAQD run (§4.2).
    QuerySpec single;
    single.objects = {type};
    online::Svaqd svaqd(single, layout, indicator_options);
    entry.sequences =
        svaqd.Run(models.detector.get(), /*recognizer=*/nullptr).sequences;
    index.objects.push_back(std::move(entry));
  }

  // --- Action types: recognizer-scored tables + SVAQD individual
  // sequences.
  for (ActionTypeId type = 0; type < vocab_->num_action_types(); ++type) {
    VAQ_TRACE_SPAN("ingest/action_table");
    storage::TypeIndex entry;
    entry.type_id = type;
    entry.type_name = vocab_->ActionTypeName(type);

    std::vector<storage::ScoreTable::Row> rows(
        static_cast<size_t>(num_clips));
    std::vector<double> scores;
    for (ClipIndex c = 0; c < num_clips; ++c) {
      const Interval shots = layout.ClipShotRange(c);
      scores.clear();
      for (ShotIndex s = shots.lo; s <= shots.hi; ++s) {
        scores.push_back(models.recognizer->Score(type, s));
      }
      rows[static_cast<size_t>(c)] = {c,
                                      scoring_->AggregateTypeScores(scores)};
    }
    VAQ_ASSIGN_OR_RETURN(entry.table,
                         storage::ScoreTable::Build(std::move(rows)));
    metric_tables->Increment();

    QuerySpec single;
    single.action = type;
    online::Svaqd svaqd(single, layout, indicator_options);
    entry.sequences =
        svaqd.Run(/*detector=*/nullptr, models.recognizer.get()).sequences;
    index.actions.push_back(std::move(entry));
  }
  return index;
}

}  // namespace offline
}  // namespace vaq
