// Online-engine parity golden.
//
// Pins what every online configuration observably does to
// tests/golden/online_parity.txt: per-clip query indicators, final
// critical values, degraded and dropped clip counts, the SequenceEvent
// stream, and the detector and recognizer ModelStats. The cases cover
// SVAQ; SVAQD with defaults, burst awareness and each UpdatePolicy; SVAQD
// under the demo fault plan with each MissingObsPolicy; a stream with
// cascade-pruned clips; and fault-free CNF queries (a disjunction and a
// two-action conjunction). Static-mode CNF pins indicators only.
//
// A failure names the case and the first field that moved. Regenerate
// only alongside an intended, documented output change:
//   VAQ_REGEN_GOLDEN=1 ./online_parity_test
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "detect/models.h"
#include "fault/fault_plan.h"
#include "online/streaming.h"
#include "online/svaq.h"
#include "online/svaqd.h"
#include "synth/scenario.h"
#include "tools/pipeline_setup.h"
#include "video/cnf_query.h"

#ifndef VAQ_GOLDEN_DIR
#error "VAQ_GOLDEN_DIR must point at tests/golden"
#endif

namespace vaq {
namespace online {
namespace {

constexpr uint64_t kModelSeed = 17;
constexpr uint64_t kFaultSeed = 29;

// Two actions and three objects: the conjunctive query has two object
// predicates ahead of its action, and the CNF queries have something to
// range over.
const synth::Scenario& ParityScenario() {
  static const synth::Scenario* scenario = [] {
    synth::ScenarioSpec spec;
    spec.name = "online_parity";
    spec.minutes = 8;
    spec.fps = 30;
    spec.seed = 2024;
    for (const char* action : {"jumping", "waving"}) {
      synth::ActionTrackSpec a;
      a.name = action;
      a.duty = 0.25;
      a.mean_len_frames = 1000;
      spec.actions.push_back(a);
    }
    int i = 0;
    for (const char* object : {"car", "truck", "human"}) {
      synth::ObjectTrackSpec o;
      o.name = object;
      o.background_duty = 0.07;
      o.mean_len_frames = 700;
      o.coupled_action = (i++ % 2 == 0) ? "jumping" : "waving";
      o.cover_action_prob = 0.85;
      spec.objects.push_back(o);
    }
    return new synth::Scenario(
        synth::Scenario::FromSpec(spec, "jumping", {"car", "human"}));
  }();
  return *scenario;
}

const fault::FaultPlan& DemoPlan() {
  static const fault::FaultPlan* plan =
      new fault::FaultPlan(tools::DemoFaultSpec(), kFaultSeed);
  return *plan;
}

std::string Indicators(const std::vector<bool>& indicators) {
  std::string out;
  for (const bool positive : indicators) out.push_back(positive ? '1' : '0');
  return out;
}

std::string Join(const std::vector<int64_t>& values) {
  std::string out;
  for (const int64_t v : values) {
    if (!out.empty()) out += ' ';
    out += std::to_string(v);
  }
  return out;
}

std::string Stats(const char* name, const detect::ModelStats& s) {
  char ms[64];
  std::snprintf(ms, sizeof(ms), "%.17g", s.simulated_ms);
  return std::string(name) + " inferences=" + std::to_string(s.inferences) +
         " type_queries=" + std::to_string(s.type_queries) +
         " faults=" + std::to_string(s.faults_injected) +
         " retries=" + std::to_string(s.retries) +
         " failures=" + std::to_string(s.failures) +
         " fallbacks=" + std::to_string(s.fallbacks) +
         " breaker_trips=" + std::to_string(s.breaker_trips) +
         " simulated_ms=" + ms;
}

std::string Event(const SequenceEvent& event) {
  const std::string at = "@" + std::to_string(event.clip);
  switch (event.kind) {
    case SequenceEvent::Kind::kOpened:
      return "O" + at;
    case SequenceEvent::Kind::kExtended:
      return "E" + at;
    case SequenceEvent::Kind::kClosed:
      return "C" + std::to_string(event.sequence.lo) + "-" +
             std::to_string(event.sequence.hi) + at;
    case SequenceEvent::Kind::kGap:
      return "G" + at;
  }
  return "?";
}

// One pinned run: the fields a case records, rendered as text lines.
struct Record {
  std::vector<bool> indicators;
  bool has_kcrit = false;
  std::vector<int64_t> kcrit;
  int64_t degraded = 0;
  int64_t dropped = 0;
  bool has_events = true;
  std::vector<SequenceEvent> events;
  detect::ModelStats detector;
  detect::ModelStats recognizer;
  bool indicators_only = false;

  void AppendTo(const std::string& name, std::ostringstream* out) const {
    *out << "[" << name << "]\n";
    *out << "indicators " << Indicators(indicators) << "\n";
    if (indicators_only) return;
    if (has_kcrit) *out << "kcrit " << Join(kcrit) << "\n";
    *out << "degraded " << degraded << " dropped " << dropped << "\n";
    if (has_events) {
      *out << "events";
      for (const SequenceEvent& e : events) *out << " " << Event(e);
      *out << "\n";
    }
    *out << Stats("detector", detector) << "\n";
    *out << Stats("recognizer", recognizer) << "\n";
  }
};

Record Batch(const OnlineResult& result) {
  Record r;
  r.indicators = result.clip_indicator;
  r.has_kcrit = true;
  r.kcrit = result.kcrit_objects;
  r.kcrit.push_back(result.kcrit_action);
  r.degraded = result.degraded_clips;
  r.dropped = result.dropped_clips;
  r.detector = result.detector_stats;
  r.recognizer = result.recognizer_stats;
  return r;
}

Record RunSvaqd(const SvaqdOptions& options) {
  const synth::Scenario& sc = ParityScenario();
  detect::ModelBundle models =
      detect::ModelBundle::MaskRcnnI3d(sc.truth(), kModelSeed);
  Record r = Batch(Svaqd(sc.query(), sc.layout(), options)
                       .Run(models.detector.get(), models.recognizer.get()));
  // The case's streaming run pins the events, gaps included.
  r.has_events = false;
  return r;
}

// Pushes every clip of `query` through the push-based engine; clips for
// which `pruned` holds take the cascade's PushPrunedClip path.
template <typename Pruned>
Record RunStream(const CnfQuery& query, const SvaqdOptions& options,
                 Pruned pruned) {
  const synth::Scenario& sc = ParityScenario();
  detect::ModelBundle models =
      detect::ModelBundle::MaskRcnnI3d(sc.truth(), kModelSeed);
  Record r;
  StreamingSvaqd stream(
      query, sc.layout(), options,
      [&r](const SequenceEvent& e) { r.events.push_back(e); });
  for (ClipIndex c = 0; c < sc.layout().NumClips(); ++c) {
    const StatusOr<bool> indicator =
        pruned(c) ? stream.PushPrunedClip()
                  : stream.PushClip(models.detector.get(),
                                    models.recognizer.get());
    EXPECT_TRUE(indicator.ok()) << indicator.status();
    r.indicators.push_back(indicator.ok() && *indicator);
  }
  stream.Finish();
  r.kcrit = stream.kcrit();
  r.degraded = stream.degraded_clips();
  r.dropped = stream.dropped_clips();
  r.detector = models.detector->stats();
  r.recognizer = models.recognizer->stats();
  return r;
}

bool NotPruned(ClipIndex) { return false; }

Record RunCnf(const std::vector<std::vector<std::string>>& clauses,
              bool adaptive) {
  auto cnf = CnfQuery::FromNames(ParityScenario().vocab(), clauses);
  EXPECT_TRUE(cnf.ok()) << cnf.status();
  SvaqdOptions options;
  options.adaptive = adaptive;
  Record r = RunStream(*cnf, options, NotPruned);
  r.has_kcrit = true;
  r.indicators_only = !adaptive;
  return r;
}

std::string Render() {
  std::ostringstream out;
  const CnfQuery conjunctive =
      CnfQuery::FromConjunctive(ParityScenario().query());

  // SVAQ: the batch run pins the result, the same configuration pushed
  // clip by clip (adaptation off) pins the events.
  SvaqOptions svaq;
  svaq.p0_object = 0.015;
  svaq.p0_action = 0.0015;
  {
    const synth::Scenario& sc = ParityScenario();
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(sc.truth(), kModelSeed);
    Record r = Batch(Svaq(sc.query(), sc.layout(), svaq)
                         .Run(models.detector.get(), models.recognizer.get()));
    SvaqdOptions static_options;
    static_options.base = svaq;
    static_options.adaptive = false;
    const Record stream = RunStream(conjunctive, static_options, NotPruned);
    EXPECT_EQ(stream.indicators, r.indicators);
    r.events = stream.events;
    r.AppendTo("svaq", &out);
  }

  const auto svaqd_case = [&](const std::string& name,
                              const SvaqdOptions& options) {
    RunSvaqd(options).AppendTo(name + "/batch", &out);
    RunStream(conjunctive, options, NotPruned)
        .AppendTo(name + "/stream", &out);
  };
  svaqd_case("svaqd_default", SvaqdOptions{});
  SvaqdOptions burst;
  burst.burst_aware = true;
  svaqd_case("svaqd_burst_aware", burst);
  const std::pair<const char*, UpdatePolicy> policies[] = {
      {"self_excluding", UpdatePolicy::kSelfExcluding},
      {"negative_clips_only", UpdatePolicy::kNegativeClipsOnly},
      {"all_clips", UpdatePolicy::kAllClips},
      {"positive_clips_only", UpdatePolicy::kPositiveClipsOnly}};
  for (const auto& [name, policy] : policies) {
    SvaqdOptions options;
    options.update_policy = policy;
    svaqd_case(std::string("svaqd_update_") + name, options);
  }
  const std::pair<const char*, MissingObsPolicy> missing[] = {
      {"assume_negative", MissingObsPolicy::kAssumeNegative},
      {"carry_last", MissingObsPolicy::kCarryLast},
      {"background_prior", MissingObsPolicy::kBackgroundPrior}};
  for (const auto& [name, policy] : missing) {
    SvaqdOptions options = tools::DemoSvaqdOptions(&DemoPlan());
    options.missing_policy = policy;
    svaqd_case(std::string("svaqd_faults_") + name, options);
  }

  RunStream(conjunctive, tools::DemoSvaqdOptions(&DemoPlan()),
            [](ClipIndex c) { return c % 5 == 3; })
      .AppendTo("stream_pruned_faults", &out);

  const std::vector<std::vector<std::string>> disjunction = {
      {"obj:car", "obj:truck"}, {"act:jumping"}};
  const std::vector<std::vector<std::string>> two_actions = {
      {"act:jumping"}, {"act:waving"}};
  RunCnf(disjunction, true).AppendTo("cnf_disjunction", &out);
  RunCnf(two_actions, true).AppendTo("cnf_two_actions", &out);
  RunCnf(disjunction, false).AppendTo("cnf_disjunction_static", &out);
  RunCnf(two_actions, false).AppendTo("cnf_two_actions_static", &out);
  return out.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(OnlineParityTest, MatchesGolden) {
  const std::string path = std::string(VAQ_GOLDEN_DIR) + "/online_parity.txt";
  const std::string actual = Render();
  if (std::getenv("VAQ_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream expected;
  expected << in.rdbuf();

  const std::vector<std::string> want = Lines(expected.str());
  const std::vector<std::string> got = Lines(actual);
  std::string section;
  for (size_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (!want[i].empty() && want[i][0] == '[') section = want[i];
    ASSERT_EQ(got[i], want[i]) << "first difference in " << section
                               << " (golden line " << i + 1 << ")";
  }
  EXPECT_EQ(got.size(), want.size());
}

}  // namespace
}  // namespace online
}  // namespace vaq
