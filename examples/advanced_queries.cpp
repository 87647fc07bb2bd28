// Advanced queries: the paper's footnote features working together.
//
//   $ ./advanced_queries
//
// Shows (1) disjunctive CNF predicates and multiple actions through the
// SQL dialect, (2) a spatial relationship predicate fed through the same
// scan-statistic machinery, and (3) the push-based streaming engine
// raising alerts as sequences open and close.
#include <cstdio>

#include "detect/relationship.h"
#include "vaq/vaq.h"

int main() {
  using namespace vaq;

  // A street scene: two actions, three object types with motion tracks.
  synth::ScenarioSpec spec;
  spec.name = "street-cam";
  spec.minutes = 10;
  spec.fps = 30;
  spec.seed = 77;
  for (const char* name : {"crossing", "cycling"}) {
    synth::ActionTrackSpec action;
    action.name = name;
    action.duty = 0.2;
    action.mean_len_frames = 900;
    spec.actions.push_back(action);
  }
  int i = 0;
  for (const char* name : {"car", "bus", "person"}) {
    synth::ObjectTrackSpec obj;
    obj.name = name;
    obj.background_duty = 0.10;
    obj.mean_len_frames = 700;
    obj.coupled_action = (i++ % 2 == 0) ? "crossing" : "cycling";
    obj.cover_action_prob = 0.85;
    spec.objects.push_back(obj);
  }
  const synth::Scenario scenario =
      synth::Scenario::FromSpec(spec, "crossing", {"car"});

  // --- 1. CNF through SQL: someone crossing while any vehicle is there.
  {
    query::Session session;
    session.RegisterStream("cam", scenario, 7);
    auto result = session.Execute(
        "SELECT MERGE(clipID) FROM cam "
        "WHERE (obj='car' OR obj='bus') AND act='crossing'");
    VAQ_CHECK(result.ok()) << result.status().ToString();
    std::printf("CNF query  (car OR bus) AND crossing: %zu sequences\n",
                result->sequences.size());
    auto both = session.Execute(
        "SELECT MERGE(clipID) FROM cam "
        "WHERE act='crossing' AND act='cycling'");
    VAQ_CHECK(both.ok()) << both.status().ToString();
    std::printf("multi-action crossing AND cycling:    %zu sequences\n",
                both->sequences.size());
  }

  // --- 2. A relationship predicate: person left of a car, processed with
  // the identical per-clip scan-statistic pipeline (footnote 2).
  {
    detect::RelationshipDetector rel_detector(
        &scenario.truth(), detect::ModelProfile::MaskRcnn(), 7);
    detect::RelationshipSpec left_of{
        detect::RelationshipKind::kLeftOf,
        scenario.vocab().FindObjectType("person"),
        scenario.vocab().FindObjectType("car"), 0.05};
    const std::vector<int64_t> counts =
        rel_detector.ClipCounts(left_of, scenario.layout());
    scanstat::ScanConfig config;
    config.window = scenario.layout().frames_per_clip();
    config.horizon = scenario.layout().num_frames();
    config.alpha = 0.01;
    const int64_t kcrit = scanstat::CriticalValue(
        rel_detector.profile().fpr, config);
    std::vector<bool> indicator;
    for (int64_t count : counts) indicator.push_back(count >= kcrit);
    const IntervalSet sequences = IntervalSet::FromIndicators(indicator);
    std::printf("relationship '%s' (k_crit=%lld): %zu sequences\n",
                left_of.ToString(scenario.vocab()).c_str(),
                static_cast<long long>(kcrit), sequences.size());
  }

  // --- 3. Streaming alerts with open/close events.
  {
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(scenario.truth(), 7);
    int opened = 0;
    int closed = 0;
    online::StreamingSvaqd stream(
        scenario.query(), scenario.layout(), online::SvaqdOptions{},
        [&](const online::SequenceEvent& event) {
          using Kind = online::SequenceEvent::Kind;
          if (event.kind == Kind::kOpened) {
            ++opened;
            std::printf("  [clip %4lld] ALERT opened\n",
                        static_cast<long long>(event.clip));
          } else if (event.kind == Kind::kClosed) {
            ++closed;
            std::printf("  [clip %4lld] alert closed: clips [%lld, %lld]\n",
                        static_cast<long long>(event.clip),
                        static_cast<long long>(event.sequence.lo),
                        static_cast<long long>(event.sequence.hi));
          }
        });
    std::printf("streaming 'crossing AND car' alerts:\n");
    for (ClipIndex c = 0; c < scenario.layout().NumClips(); ++c) {
      stream.PushClip(models.detector.get(), models.recognizer.get());
    }
    stream.Finish();
    std::printf("total: %d alerts opened, %d closed\n", opened, closed);
  }
  return 0;
}
