// Acceptance suite for the chaos harness itself (src/chaos/): replay
// specs round-trip through JSON exactly, ddmin shrinks to 1-minimal
// schedules, a small seeded sweep holds every oracle, and — the
// harness's own canary — an injected double-apply bug is caught, shrunk
// to a single event and reproduced byte-identically from the emitted
// JSON document.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/engine.h"
#include "chaos/scenario.h"
#include "chaos/schedule.h"
#include "chaos/shrink.h"
#include "chaos/trial.h"

namespace vaq {
namespace chaos {
namespace {

TEST(ChaosReplayJson, RoundTripsExactly) {
  ReplaySpec spec;
  spec.seed = 0xdeadbeefcafef00dULL;  // Above 2^53: breaks if parsed
  spec.trial = 1234567890123LL;       // through a double.
  spec.canary = true;
  ChaosEvent crash;
  crash.kind = EventKind::kTornAdvance;
  crash.at_advance = 9;
  spec.events.push_back(crash);
  ChaosEvent kill;
  kill.kind = EventKind::kNodeKill;
  kill.host = 3;
  kill.from_ms = 12.25;
  kill.to_ms = 97.625;
  spec.events.push_back(kill);
  ChaosEvent part;
  part.kind = EventKind::kNetPartition;
  part.from_ms = 0.1;  // Not exactly representable: %.17g must survive.
  part.to_ms = 33.3;
  spec.events.push_back(part);

  const std::string json = ReplayToJson(spec);
  const auto parsed = ReplayFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, spec.seed);
  EXPECT_EQ(parsed->trial, spec.trial);
  EXPECT_EQ(parsed->canary, spec.canary);
  ASSERT_EQ(parsed->events.size(), spec.events.size());
  for (size_t i = 0; i < spec.events.size(); ++i) {
    EXPECT_TRUE(parsed->events[i] == spec.events[i]) << "event " << i;
  }
  // Emission is canonical: a second round trip is byte-identical.
  EXPECT_EQ(ReplayToJson(*parsed), json);
}

TEST(ChaosReplayJson, RejectsMalformedDocuments) {
  EXPECT_FALSE(ReplayFromJson("").ok());
  EXPECT_FALSE(ReplayFromJson("{}").ok());  // No version key.
  EXPECT_FALSE(ReplayFromJson("{\"chaos_replay\": 2}").ok());
  EXPECT_FALSE(
      ReplayFromJson("{\"chaos_replay\": 1, \"bogus\": 3}").ok());
  EXPECT_FALSE(ReplayFromJson("{\"chaos_replay\": 1} trailing").ok());
  EXPECT_FALSE(ReplayFromJson("{\"chaos_replay\": 1, \"events\": "
                              "[{\"kind\": \"no_such_kind\"}]}")
                   .ok());
  EXPECT_TRUE(ReplayFromJson("{\"chaos_replay\": 1}").ok());
  // Integers parse exactly into their own type: a negative advance, a
  // value past int64_t and a signed seed are all InvalidArgument.
  for (const char* event :
       {"{\"kind\": \"corrupt_snapshot\", \"at_advance\": -1}",
        "{\"kind\": \"corrupt_snapshot\", "
        "\"at_advance\": 99999999999999999999}"}) {
    const auto parsed = ReplayFromJson(
        std::string("{\"chaos_replay\": 1, \"events\": [") + event + "]}");
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << event;
  }
  EXPECT_EQ(ReplayFromJson("{\"chaos_replay\": 1, \"seed\": -1}")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Window bounds are finite: strtod would read these as +/-infinity.
  for (const char* event :
       {"{\"kind\": \"net_partition\", \"from_ms\": 0, "
        "\"to_ms\": 1e999}",
        "{\"kind\": \"net_partition\", \"from_ms\": -1e999, "
        "\"to_ms\": 10}"}) {
    const auto parsed = ReplayFromJson(
        std::string("{\"chaos_replay\": 1, \"events\": [") + event + "]}");
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << event;
  }
}

// The largest advance the parser accepts still picks a byte to corrupt
// without overflow (san.chaos_engine_test runs this under UBSan): the
// trial's two forced checkpoints leave a fallback, and recovery from it
// holds every oracle.
TEST(ChaosReplayJson, CorruptSnapshotAtTheLargestAdvanceRunsClean) {
  const auto spec = ReplayFromJson(
      "{\"chaos_replay\": 1, \"seed\": 20261017, \"trial\": 158, "
      "\"events\": [{\"kind\": \"force_checkpoint\", \"at_advance\": 8}, "
      "{\"kind\": \"force_checkpoint\", \"at_advance\": 10}, "
      "{\"kind\": \"corrupt_snapshot\", "
      "\"at_advance\": 9223372036854775807}]}");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->events.back().at_advance, INT64_MAX);
  const auto report = RunReplay(*spec, ChaosOptions());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->coverage.contains("event.corrupt_snapshot"))
      << "the corruption was skipped, not applied";
  EXPECT_FALSE(report->failed()) << report->failure.front();
}

TEST(ChaosScenarioGen, PureFunctionOfSeedAndTrial) {
  for (int64_t trial = 0; trial < 20; ++trial) {
    const TrialScenario a = MakeTrialScenario(99, trial);
    const TrialScenario b = MakeTrialScenario(99, trial);
    EXPECT_EQ(a.phase, b.phase) << trial;
    EXPECT_EQ(a.num_streams, b.num_streams) << trial;
    EXPECT_EQ(a.advances, b.advances) << trial;
    EXPECT_EQ(a.env_seed, b.env_seed) << trial;
    const Schedule sa = GenerateSchedule(a, 99);
    const Schedule sb = GenerateSchedule(b, 99);
    EXPECT_EQ(sa, sb) << trial;
  }
}

TEST(ChaosScenarioGen, SweepCoversEveryPhase) {
  int counts[3] = {0, 0, 0};
  for (int64_t trial = 0; trial < 60; ++trial) {
    counts[static_cast<int>(MakeTrialScenario(1, trial).phase)]++;
  }
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[1], 0);
  EXPECT_GT(counts[2], 0);
}

// Ddmin over a synthetic predicate: failure iff the schedule contains
// BOTH marker events (a dependent pair buried in noise).
TEST(ChaosShrink, FindsMinimalDependentPair) {
  Schedule noisy;
  for (int i = 0; i < 12; ++i) {
    ChaosEvent e;
    e.kind = EventKind::kForceCheckpoint;
    e.at_advance = i;
    noisy.push_back(e);
  }
  ChaosEvent a;
  a.kind = EventKind::kCrashRestart;
  a.at_advance = 100;
  ChaosEvent b;
  b.kind = EventKind::kTornAdvance;
  b.at_advance = 200;
  noisy.insert(noisy.begin() + 3, a);
  noisy.insert(noisy.begin() + 9, b);

  int64_t calls = 0;
  const ScheduleFails fails = [&](const Schedule& s) -> StatusOr<bool> {
    ++calls;
    bool has_a = false;
    bool has_b = false;
    for (const ChaosEvent& e : s) {
      if (e == a) has_a = true;
      if (e == b) has_b = true;
    }
    return has_a && has_b;
  };
  const auto result = DdminSchedule(noisy, fails);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->minimal.size(), 2u);
  EXPECT_TRUE(result->minimal[0] == a);
  EXPECT_TRUE(result->minimal[1] == b);
  EXPECT_EQ(result->runs, calls);
}

TEST(ChaosShrink, SingleEventScheduleIsAlreadyMinimal) {
  Schedule one;
  ChaosEvent e;
  e.kind = EventKind::kCrashRestart;
  e.at_advance = 5;
  one.push_back(e);
  const ScheduleFails fails = [](const Schedule&) -> StatusOr<bool> {
    ADD_FAILURE() << "predicate must not run for a single-event schedule";
    return true;
  };
  const auto result = DdminSchedule(one, fails);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->minimal.size(), 1u);
  EXPECT_EQ(result->runs, 0);
}

TEST(ChaosSweep, SmallSweepHoldsEveryOracle) {
#ifdef VAQ_UNDER_SANITIZER
  constexpr int64_t kTrials = 3;
#else
  constexpr int64_t kTrials = 10;
#endif
  ChaosOptions options;
  options.trials = kTrials;
  options.seed = 1;
  const auto report = RunChaos(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->failed())
      << "first violation: " << report->failure.front();
  EXPECT_EQ(report->trials_run, kTrials);
}

TEST(ChaosSweep, CanaryIsCaughtShrunkAndReplayable) {
  // The harness's own acceptance test: arm the injected double-apply
  // bug, sweep until a standing trial with a crash event trips it,
  // and require the full pipeline — detection, 1-minimal shrink (the
  // canary fires on ANY single crash/torn event, so minimal size is
  // exactly 1, well under the <= 3 budget), and a byte-identical replay
  // from the emitted JSON document.
#ifdef VAQ_UNDER_SANITIZER
  GTEST_SKIP() << "canary sweep runs in the plain config only";
#else
  ChaosOptions options;
  options.trials = 30;
  options.seed = 1;
  options.canary = true;
  const auto report = RunChaos(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed()) << "canary bug was not detected";
  EXPECT_EQ(report->failed_phase, Phase::kStanding);
  EXPECT_LE(report->reproducer.events.size(), 3u);
  EXPECT_TRUE(report->replay_confirmed);

  // The reproducer document alone — parsed back like a user would —
  // reproduces the identical violations.
  const auto spec = ReplayFromJson(report->replay_json);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const auto replay = RunReplay(*spec, options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->failure, report->failure);

  // The same trial with the canary disarmed passes: the failure is the
  // injected bug, not the schedule.
  ReplaySpec clean = *spec;
  clean.canary = false;
  const auto healthy = RunReplay(clean, options);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_FALSE(healthy->failed())
      << "violation without canary: " << healthy->failure.front();
#endif
}

}  // namespace
}  // namespace chaos
}  // namespace vaq
