// Evaluation metrics (§5.1 of the paper).
//
//  * Sequence-level F1: a result sequence matches a ground-truth sequence
//    when their IoU (at clip granularity) reaches the threshold η (0.5 in
//    the paper). Matched results are true positives; unmatched results are
//    false positives; unmatched truth sequences are false negatives.
//  * Frame-level F1: precision/recall over the individual frames covered
//    by results vs truth (Figure 5's clip-size-independent metric).
//  * False-positive rate: the fraction of occurrence units outside the
//    truth that carry a positive prediction — computed for raw model
//    outputs ("w/o SVAQD") and for the occurrence units inside result
//    sequences ("w/ SVAQD"), reproducing Table 5.
#ifndef VAQ_EVAL_METRICS_H_
#define VAQ_EVAL_METRICS_H_

#include <cstdint>
#include <string>

#include "common/interval.h"
#include "detect/models.h"
#include "synth/ground_truth.h"
#include "video/layout.h"
#include "video/query_spec.h"

namespace vaq {
namespace eval {

// Precision / recall / F1 with the underlying match counts.
struct F1Result {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  int64_t true_positives = 0;
  int64_t false_positives = 0;
  int64_t false_negatives = 0;

  std::string ToString() const;
};

// Builds an F1Result from counts (handles the zero denominators).
F1Result F1FromCounts(int64_t tp, int64_t fp, int64_t fn);

// Sequence-level F1 at IoU threshold `eta` (the paper's η = 0.5): each
// result interval is a TP iff some truth interval has IoU >= eta with it;
// each truth interval missing such a match is a FN.
F1Result SequenceF1(const IntervalSet& results, const IntervalSet& truth,
                    double eta = 0.5);

// Frame-level F1: results and truth are clip-level interval sets; both are
// expanded to frames under `layout` and compared frame by frame.
F1Result FrameLevelF1(const IntervalSet& result_clips,
                      const IntervalSet& truth_clips,
                      const VideoLayout& layout);

// Frame-level F1 where truth is already at frame granularity.
F1Result FrameLevelF1Frames(const IntervalSet& result_clips,
                            const IntervalSet& truth_frames,
                            const VideoLayout& layout);

// Raw per-frame false-positive rate of the object detector for `type`:
// the fraction of frames outside the type's truth where the detector
// fires. Runs the detector over every frame of the video.
double RawObjectFpr(const synth::GroundTruth& truth,
                    const detect::ObjectDetector& detector,
                    ObjectTypeId type);

// Raw per-shot false-positive rate of the action recognizer for `type`.
double RawActionFpr(const synth::GroundTruth& truth,
                    const detect::ActionRecognizer& recognizer,
                    ActionTypeId type);

// Surviving false-positive rate: the fraction of truth-negative frames on
// which the *raw detector fired* AND which the result sequences still
// cover — i.e. how much of the model's noise survived SVAQD's statistical
// filtering (Table 5's "w/ SVAQD" column measures exactly this noise
// elimination).
double SurvivingObjectFpr(const synth::GroundTruth& truth,
                          const detect::ObjectDetector& detector,
                          ObjectTypeId type, const IntervalSet& result_clips);

// Shot-granularity counterpart for the action recognizer.
double SurvivingActionFpr(const synth::GroundTruth& truth,
                          const detect::ActionRecognizer& recognizer,
                          ActionTypeId type, const IntervalSet& result_clips);

}  // namespace eval
}  // namespace vaq

#endif  // VAQ_EVAL_METRICS_H_
