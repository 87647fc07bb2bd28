#include "online/streaming.h"

#include <gtest/gtest.h>

#include "detect/models.h"
#include "fault/fault_plan.h"
#include "synth/scenario.h"

namespace vaq {
namespace online {
namespace {

const synth::Scenario& StreamScenario() {
  static const synth::Scenario* scenario = [] {
    synth::ScenarioSpec spec;
    spec.name = "streaming_test";
    spec.minutes = 6;
    spec.fps = 30;
    spec.seed = 404;
    synth::ActionTrackSpec action;
    action.name = "running";
    action.duty = 0.3;
    action.mean_len_frames = 1000;
    spec.actions.push_back(action);
    synth::ObjectTrackSpec dog;
    dog.name = "dog";
    dog.background_duty = 0.06;
    dog.mean_len_frames = 700;
    dog.coupled_action = "running";
    dog.cover_action_prob = 0.9;
    spec.objects.push_back(dog);
    return new synth::Scenario(
        synth::Scenario::FromSpec(spec, "running", {"dog"}));
  }();
  return *scenario;
}

TEST(StreamingSvaqdTest, ReproducesBatchSvaqdExactly) {
  const synth::Scenario& sc = StreamScenario();
  detect::ModelBundle m1 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  Svaqd batch(sc.query(), sc.layout(), SvaqdOptions{});
  const OnlineResult expected =
      batch.Run(m1.detector.get(), m1.recognizer.get());

  detect::ModelBundle m2 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  StreamingSvaqd stream(sc.query(), sc.layout(), SvaqdOptions{}, nullptr);
  std::vector<bool> indicators;
  for (ClipIndex c = 0; c < sc.layout().NumClips(); ++c) {
    indicators.push_back(
        *stream.PushClip(m2.detector.get(), m2.recognizer.get()));
  }
  stream.Finish();
  EXPECT_EQ(stream.sequences(), expected.sequences);
  EXPECT_EQ(indicators, expected.clip_indicator);
}

TEST(StreamingSvaqdTest, PushClipFailsCleanlyAfterFinishAndPastHorizon) {
  const synth::Scenario& sc = StreamScenario();
  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  // Past the design horizon: every in-range push succeeds, the next one
  // reports kOutOfRange and leaves the stream usable (Finish still works).
  StreamingSvaqd stream(sc.query(), sc.layout(), SvaqdOptions{}, nullptr);
  for (ClipIndex c = 0; c < sc.layout().NumClips(); ++c) {
    ASSERT_TRUE(
        stream.PushClip(models.detector.get(), models.recognizer.get()).ok())
        << c;
  }
  const auto past =
      stream.PushClip(models.detector.get(), models.recognizer.get());
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(stream.next_clip(), sc.layout().NumClips());  // State untouched.
  stream.Finish();
  // After Finish: kFailedPrecondition, again without state damage.
  const auto after =
      stream.PushClip(models.detector.get(), models.recognizer.get());
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(stream.finished());
}

TEST(StreamingSvaqdTest, EventsAreConsistentAndTimely) {
  const synth::Scenario& sc = StreamScenario();
  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  std::vector<SequenceEvent> events;
  StreamingSvaqd stream(sc.query(), sc.layout(), SvaqdOptions{},
                        [&](const SequenceEvent& event) {
                          events.push_back(event);
                        });
  for (ClipIndex c = 0; c < sc.layout().NumClips(); ++c) {
    ASSERT_TRUE(
        stream.PushClip(models.detector.get(), models.recognizer.get()).ok());
  }
  stream.Finish();

  // Event grammar: (opened, extended*, closed)*, with closures arriving
  // exactly one clip after the sequence's last clip (or at Finish).
  bool open = false;
  Interval current;
  IntervalSet from_events;
  for (const SequenceEvent& event : events) {
    switch (event.kind) {
      case SequenceEvent::Kind::kOpened:
        ASSERT_FALSE(open);
        open = true;
        current = event.sequence;
        EXPECT_EQ(event.sequence.lo, event.clip);
        break;
      case SequenceEvent::Kind::kExtended:
        ASSERT_TRUE(open);
        EXPECT_EQ(event.sequence.lo, current.lo);
        EXPECT_EQ(event.sequence.hi, event.clip);
        current = event.sequence;
        break;
      case SequenceEvent::Kind::kClosed:
        ASSERT_TRUE(open);
        open = false;
        EXPECT_EQ(event.sequence.lo, current.lo);
        EXPECT_GE(event.clip, event.sequence.hi);
        EXPECT_LE(event.clip, event.sequence.hi + 1);  // One-clip latency.
        from_events.Add(event.sequence);
        break;
      case SequenceEvent::Kind::kGap:
        ADD_FAILURE() << "gap event without fault injection";
        break;
    }
  }
  EXPECT_FALSE(open);  // Finish closed everything.
  EXPECT_EQ(from_events, stream.sequences());
  EXPECT_GE(stream.sequences().size(), 3u);
}

TEST(StreamingSvaqdTest, FinishClosesOpenSequence) {
  const synth::Scenario& sc = StreamScenario();
  detect::ModelBundle models = detect::ModelBundle::Ideal(sc.truth(), 3);
  StreamingSvaqd stream(sc.query(), sc.layout(), SvaqdOptions{}, nullptr);
  // Push until we are inside a positive run, then stop mid-stream.
  ClipIndex pushed = 0;
  bool in_run = false;
  for (; pushed < sc.layout().NumClips(); ++pushed) {
    in_run = *stream.PushClip(models.detector.get(), models.recognizer.get());
    if (in_run && pushed > 5) break;
  }
  ASSERT_TRUE(in_run);
  const size_t before = stream.sequences().size();
  stream.Finish();
  EXPECT_EQ(stream.sequences().size(), before + 1);
  EXPECT_EQ(stream.sequences().intervals().back().hi, pushed);
  EXPECT_TRUE(stream.finished());
}

TEST(StreamingSvaqdTest, PartialStreamMatchesPrefixSemantics) {
  // Processing only a prefix yields exactly the sequences fully contained
  // in that prefix (plus the open tail closed by Finish).
  const synth::Scenario& sc = StreamScenario();
  const ClipIndex prefix = sc.layout().NumClips() / 2;
  detect::ModelBundle m1 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 9);
  StreamingSvaqd full(sc.query(), sc.layout(), SvaqdOptions{}, nullptr);
  std::vector<bool> full_indicators;
  for (ClipIndex c = 0; c < prefix; ++c) {
    full_indicators.push_back(
        *full.PushClip(m1.detector.get(), m1.recognizer.get()));
  }
  full.Finish();
  // Same prefix re-fed to a fresh engine gives the same answer
  // (estimators only ever see the past: the engine is causal).
  detect::ModelBundle m2 = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 9);
  StreamingSvaqd again(sc.query(), sc.layout(), SvaqdOptions{}, nullptr);
  for (ClipIndex c = 0; c < prefix; ++c) {
    const bool indicator =
        *again.PushClip(m2.detector.get(), m2.recognizer.get());
    EXPECT_EQ(indicator, full_indicators[static_cast<size_t>(c)]) << c;
  }
}

TEST(StreamingSvaqdTest, RejectedPushLeavesStateUntouched) {
  // Under fault injection the resilience state binds to the first push's
  // models; a push with another instance is rejected before anything
  // moves — cursor, clock, estimators and the models' stats alike.
  const synth::Scenario& sc = StreamScenario();
  fault::FaultSpec spec;
  spec.timeout_rate = 0.05;
  spec.drop_clip_rate = 0.05;
  const fault::FaultPlan plan(spec, 11);
  SvaqdOptions options;
  options.fault_plan = &plan;

  detect::ModelBundle ref_models =
      detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  StreamingSvaqd reference(sc.query(), sc.layout(), options, nullptr);
  std::vector<bool> expected;
  for (ClipIndex c = 0; c < sc.layout().NumClips(); ++c) {
    expected.push_back(*reference.PushClip(ref_models.detector.get(),
                                           ref_models.recognizer.get()));
  }

  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  detect::ModelBundle other = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  StreamingSvaqd stream(sc.query(), sc.layout(), options, nullptr);
  std::vector<bool> actual;
  actual.push_back(
      *stream.PushClip(models.detector.get(), models.recognizer.get()));
  const auto wrong_detector =
      stream.PushClip(other.detector.get(), models.recognizer.get());
  ASSERT_FALSE(wrong_detector.ok());
  EXPECT_EQ(wrong_detector.status().code(), StatusCode::kInvalidArgument);
  const auto wrong_recognizer =
      stream.PushClip(models.detector.get(), other.recognizer.get());
  ASSERT_FALSE(wrong_recognizer.ok());
  EXPECT_EQ(wrong_recognizer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stream.next_clip(), 1);
  EXPECT_EQ(other.detector->stats().type_queries, 0);
  EXPECT_EQ(other.recognizer->stats().type_queries, 0);
  for (ClipIndex c = 1; c < sc.layout().NumClips(); ++c) {
    actual.push_back(
        *stream.PushClip(models.detector.get(), models.recognizer.get()));
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(stream.degraded_clips(), reference.degraded_clips());
  EXPECT_EQ(models.detector->stats().type_queries,
            ref_models.detector->stats().type_queries);
}

TEST(StreamingSvaqdTest, MissingModelIsInvalidArgument) {
  const synth::Scenario& sc = StreamScenario();
  detect::ModelBundle models = detect::ModelBundle::MaskRcnnI3d(sc.truth(), 3);
  StreamingSvaqd stream(sc.query(), sc.layout(), SvaqdOptions{}, nullptr);
  const auto no_detector = stream.PushClip(nullptr, models.recognizer.get());
  ASSERT_FALSE(no_detector.ok());
  EXPECT_EQ(no_detector.status().code(), StatusCode::kInvalidArgument);
  const auto no_recognizer = stream.PushClip(models.detector.get(), nullptr);
  ASSERT_FALSE(no_recognizer.ok());
  EXPECT_EQ(no_recognizer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stream.next_clip(), 0);
  EXPECT_EQ(models.recognizer->stats().type_queries, 0);

  // A model the query does not need may be absent.
  QuerySpec action_only;
  action_only.action = sc.query().action;
  StreamingSvaqd actions(action_only, sc.layout(), SvaqdOptions{}, nullptr);
  EXPECT_TRUE(actions.PushClip(nullptr, models.recognizer.get()).ok());
}

}  // namespace
}  // namespace online
}  // namespace vaq
