#include "online/svaqd.h"

#include "common/logging.h"
#include "obs/trace.h"
#include "online/streaming.h"

namespace vaq {
namespace online {

Svaqd::Svaqd(QuerySpec query, VideoLayout layout, SvaqdOptions options)
    : Svaqd(CnfQuery::FromConjunctive(query), layout, std::move(options)) {}

Svaqd::Svaqd(CnfQuery query, VideoLayout layout, SvaqdOptions options)
    : query_(std::move(query)),
      layout_(layout),
      options_(std::move(options)) {}

OnlineResult Svaqd::Run(detect::ObjectDetector* detector,
                        detect::ActionRecognizer* recognizer) const {
  static constinit obs::SpanSite svaqd_site("svaqd/run");
  static constinit obs::SpanSite svaq_site("svaq/run");
  const obs::Span span(options_.adaptive ? &svaqd_site : &svaq_site);
  const detect::ModelStats detector_stats_before =
      detector != nullptr ? detector->stats() : detect::ModelStats();
  const detect::ModelStats recognizer_stats_before =
      recognizer != nullptr ? recognizer->stats() : detect::ModelStats();

  StreamingSvaqd engine(query_, layout_, options_, StreamingSvaqd::Callback());
  OnlineResult result;
  const int64_t num_clips = layout_.NumClips();
  result.clip_indicator.reserve(static_cast<size_t>(num_clips));
  for (ClipIndex c = 0; c < num_clips; ++c) {
    const StatusOr<bool> indicator = engine.PushClip(detector, recognizer);
    VAQ_CHECK(indicator.ok()) << indicator.status();
    result.clip_indicator.push_back(*indicator);
  }
  engine.Finish();
  result.clips_processed = num_clips;
  result.sequences = engine.sequences();
  result.degraded_clips = engine.degraded_clips();
  result.dropped_clips = engine.dropped_clips();
  const std::vector<Literal> literals = engine.literals();
  const std::vector<int64_t> kcrit = engine.kcrit();
  bool have_action = false;
  for (size_t i = 0; i < literals.size(); ++i) {
    if (literals[i].kind == Literal::Kind::kObject) {
      result.kcrit_objects.push_back(kcrit[i]);
    } else if (!have_action) {
      result.kcrit_action = kcrit[i];
      have_action = true;
    }
  }
  // Per-run deltas, so stats stay per-query when a model bundle is shared
  // across successive runs (the serving layer's shared detection cache).
  if (detector != nullptr) {
    result.detector_stats = detector->stats() - detector_stats_before;
  }
  if (recognizer != nullptr) {
    result.recognizer_stats = recognizer->stats() - recognizer_stats_before;
  }
  return result;
}

}  // namespace online
}  // namespace vaq
