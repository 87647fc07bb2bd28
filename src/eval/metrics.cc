#include "eval/metrics.h"

#include <sstream>

namespace vaq {
namespace eval {

std::string F1Result::ToString() const {
  std::ostringstream os;
  os << "F1{p=" << precision << ", r=" << recall << ", f1=" << f1
     << ", tp=" << true_positives << ", fp=" << false_positives
     << ", fn=" << false_negatives << "}";
  return os.str();
}

F1Result F1FromCounts(int64_t tp, int64_t fp, int64_t fn) {
  F1Result out;
  out.true_positives = tp;
  out.false_positives = fp;
  out.false_negatives = fn;
  out.precision =
      tp + fp > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fp)
                  : (fn == 0 ? 1.0 : 0.0);
  out.recall =
      tp + fn > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fn)
                  : (fp == 0 ? 1.0 : 0.0);
  out.f1 = out.precision + out.recall > 0
               ? 2.0 * out.precision * out.recall /
                     (out.precision + out.recall)
               : 0.0;
  return out;
}

F1Result SequenceF1(const IntervalSet& results, const IntervalSet& truth,
                    double eta) {
  int64_t tp = 0;
  int64_t fp = 0;
  for (const Interval& result : results.intervals()) {
    bool matched = false;
    for (const Interval& gt : truth.intervals()) {
      if (IntervalIoU(result, gt) >= eta) {
        matched = true;
        break;
      }
    }
    matched ? ++tp : ++fp;
  }
  int64_t fn = 0;
  for (const Interval& gt : truth.intervals()) {
    bool matched = false;
    for (const Interval& result : results.intervals()) {
      if (IntervalIoU(result, gt) >= eta) {
        matched = true;
        break;
      }
    }
    if (!matched) ++fn;
  }
  return F1FromCounts(tp, fp, fn);
}

F1Result FrameLevelF1(const IntervalSet& result_clips,
                      const IntervalSet& truth_clips,
                      const VideoLayout& layout) {
  return FrameLevelF1Frames(result_clips, layout.ClipsToFrames(truth_clips),
                            layout);
}

F1Result FrameLevelF1Frames(const IntervalSet& result_clips,
                            const IntervalSet& truth_frames,
                            const VideoLayout& layout) {
  const IntervalSet result_frames = layout.ClipsToFrames(result_clips);
  const int64_t tp = result_frames.Intersect(truth_frames).TotalLength();
  const int64_t fp = result_frames.TotalLength() - tp;
  const int64_t fn = truth_frames.TotalLength() - tp;
  return F1FromCounts(tp, fp, fn);
}

double RawObjectFpr(const synth::GroundTruth& truth,
                    const detect::ObjectDetector& detector,
                    ObjectTypeId type) {
  const IntervalSet& present = truth.ObjectFrames(type);
  int64_t negatives = 0;
  int64_t false_positives = 0;
  for (FrameIndex v = 0; v < truth.layout().num_frames(); ++v) {
    if (present.Contains(v)) continue;
    ++negatives;
    if (detector.IsPositive(type, v)) ++false_positives;
  }
  return negatives > 0 ? static_cast<double>(false_positives) /
                             static_cast<double>(negatives)
                       : 0.0;
}

double RawActionFpr(const synth::GroundTruth& truth,
                    const detect::ActionRecognizer& recognizer,
                    ActionTypeId type) {
  const IntervalSet shots = truth.ActionShots(type);
  int64_t negatives = 0;
  int64_t false_positives = 0;
  for (ShotIndex s = 0; s < truth.layout().NumShots(); ++s) {
    if (shots.Contains(s)) continue;
    ++negatives;
    if (recognizer.IsPositive(type, s)) ++false_positives;
  }
  return negatives > 0 ? static_cast<double>(false_positives) /
                             static_cast<double>(negatives)
                       : 0.0;
}

double SurvivingObjectFpr(const synth::GroundTruth& truth,
                          const detect::ObjectDetector& detector,
                          ObjectTypeId type,
                          const IntervalSet& result_clips) {
  const IntervalSet& present = truth.ObjectFrames(type);
  const IntervalSet result_frames =
      truth.layout().ClipsToFrames(result_clips);
  int64_t negatives = 0;
  int64_t surviving = 0;
  for (FrameIndex v = 0; v < truth.layout().num_frames(); ++v) {
    if (present.Contains(v)) continue;
    ++negatives;
    if (detector.IsPositive(type, v) && result_frames.Contains(v)) {
      ++surviving;
    }
  }
  return negatives > 0 ? static_cast<double>(surviving) /
                             static_cast<double>(negatives)
                       : 0.0;
}

double SurvivingActionFpr(const synth::GroundTruth& truth,
                          const detect::ActionRecognizer& recognizer,
                          ActionTypeId type,
                          const IntervalSet& result_clips) {
  const IntervalSet shots = truth.ActionShots(type);
  int64_t negatives = 0;
  int64_t surviving = 0;
  for (ShotIndex s = 0; s < truth.layout().NumShots(); ++s) {
    if (shots.Contains(s)) continue;
    ++negatives;
    if (!recognizer.IsPositive(type, s)) continue;
    const ClipIndex clip = truth.layout().ShotToClip(s);
    if (result_clips.Contains(clip)) ++surviving;
  }
  return negatives > 0 ? static_cast<double>(surviving) /
                             static_cast<double>(negatives)
                       : 0.0;
}

}  // namespace eval
}  // namespace vaq
