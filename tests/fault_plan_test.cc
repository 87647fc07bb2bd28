#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace vaq {
namespace fault {
namespace {

FaultSpec AllFaultsSpec() {
  FaultSpec spec;
  spec.timeout_rate = 0.05;
  spec.crash_rate = 0.1;
  spec.crash_len_units = 64;
  spec.nan_score_rate = 0.02;
  spec.out_of_range_score_rate = 0.02;
  spec.drop_clip_rate = 0.03;
  return spec;
}

TEST(FaultPlanTest, SameSeedYieldsIdenticalSchedule) {
  const FaultSpec spec = AllFaultsSpec();
  const FaultPlan a(spec, 42);
  const FaultPlan b(spec, 42);
  for (int64_t unit = 0; unit < 2000; ++unit) {
    EXPECT_EQ(a.CrashActive(FaultDomain::kDetector, unit),
              b.CrashActive(FaultDomain::kDetector, unit));
    EXPECT_EQ(a.ProbeCall(FaultDomain::kDetector, unit, unit % 3),
              b.ProbeCall(FaultDomain::kDetector, unit, unit % 3));
    EXPECT_EQ(a.DropClip(unit), b.DropClip(unit));
  }
  // Repeated consultation of the same coordinate never disagrees with
  // itself (the plan is a pure function, not a stateful stream).
  EXPECT_EQ(a.ProbeCall(FaultDomain::kRecognizer, 17, 0),
            a.ProbeCall(FaultDomain::kRecognizer, 17, 0));
}

TEST(FaultPlanTest, DifferentSeedsYieldDifferentSchedules) {
  const FaultSpec spec = AllFaultsSpec();
  const FaultPlan a(spec, 1);
  const FaultPlan b(spec, 2);
  int disagreements = 0;
  for (int64_t unit = 0; unit < 5000; ++unit) {
    if (a.ProbeCall(FaultDomain::kDetector, unit, 0) !=
        b.ProbeCall(FaultDomain::kDetector, unit, 0)) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 100);
}

TEST(FaultPlanTest, DomainsAreIndependentStreams) {
  const FaultSpec spec = AllFaultsSpec();
  const FaultPlan plan(spec, 7);
  int disagreements = 0;
  for (int64_t unit = 0; unit < 5000; ++unit) {
    if (plan.ProbeCall(FaultDomain::kDetector, unit, 0) !=
        plan.ProbeCall(FaultDomain::kRecognizer, unit, 0)) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 100);
}

TEST(FaultPlanTest, EmptySpecInjectsNothing) {
  const FaultPlan plan(FaultSpec{}, 9);
  EXPECT_FALSE(FaultSpec{}.any());
  for (int64_t unit = 0; unit < 1000; ++unit) {
    EXPECT_FALSE(plan.CrashActive(FaultDomain::kDetector, unit));
    EXPECT_EQ(plan.ProbeCall(FaultDomain::kDetector, unit, 0),
              FaultKind::kNone);
    EXPECT_FALSE(plan.DropClip(unit));
  }
}

TEST(FaultPlanTest, RaisingARateOnlyAddsFaults) {
  // Coupled uniforms: with the same seed, the fault set at a lower rate
  // is a subset of the fault set at a higher rate. This is what makes
  // bench_resilience's rate sweep monotone by construction.
  FaultSpec lo;
  lo.crash_rate = 0.05;
  lo.timeout_rate = 0.03;
  lo.drop_clip_rate = 0.02;
  FaultSpec hi = lo;
  hi.crash_rate = 0.2;
  hi.timeout_rate = 0.12;
  hi.drop_clip_rate = 0.08;
  const FaultPlan plan_lo(lo, 33);
  const FaultPlan plan_hi(hi, 33);
  for (int64_t unit = 0; unit < 4000; ++unit) {
    if (plan_lo.CrashActive(FaultDomain::kDetector, unit)) {
      EXPECT_TRUE(plan_hi.CrashActive(FaultDomain::kDetector, unit)) << unit;
    }
    if (plan_lo.ProbeCall(FaultDomain::kDetector, unit, 0) !=
        FaultKind::kNone) {
      EXPECT_NE(plan_hi.ProbeCall(FaultDomain::kDetector, unit, 0),
                FaultKind::kNone)
          << unit;
    }
    if (plan_lo.DropClip(unit)) {
      EXPECT_TRUE(plan_hi.DropClip(unit)) << unit;
    }
  }
}

TEST(FaultPlanTest, CrashesAreBlockStructuredWithExpectedCoverage) {
  FaultSpec spec;
  spec.crash_rate = 0.1;
  spec.crash_len_units = 128;
  const FaultPlan plan(spec, 55);
  const int64_t units = 200 * spec.crash_len_units;
  int64_t down_units = 0;
  for (int64_t window = 0; window < 200; ++window) {
    const int64_t base = window * spec.crash_len_units;
    const bool down = plan.CrashActive(FaultDomain::kDetector, base);
    // Constant within the window: an outage covers whole windows.
    for (int64_t u = 0; u < spec.crash_len_units; u += 17) {
      EXPECT_EQ(plan.CrashActive(FaultDomain::kDetector, base + u), down);
    }
    if (down) down_units += spec.crash_len_units;
  }
  const double fraction =
      static_cast<double>(down_units) / static_cast<double>(units);
  EXPECT_NEAR(fraction, spec.crash_rate, 0.06);  // 200 Bernoulli windows.
}

TEST(FaultSpecValidationTest, AcceptsAllRatesAtBounds) {
  FaultSpec spec = AllFaultsSpec();
  EXPECT_TRUE(ValidateFaultSpec(spec).ok());
  spec.timeout_rate = 0.0;
  spec.crash_rate = 1.0;
  spec.net_drop_rate = 1.0;
  spec.node_outage_rate = 0.0;
  EXPECT_TRUE(ValidateFaultSpec(spec).ok());
  EXPECT_TRUE(FaultPlan::Create(spec, 7).ok());
}

TEST(FaultSpecValidationTest, RejectsRateAboveOne) {
  FaultSpec spec;
  spec.timeout_rate = 1.1;
  const Status status = ValidateFaultSpec(spec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("timeout_rate"), std::string::npos);
  EXPECT_EQ(FaultPlan::Create(spec, 7).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultSpecValidationTest, RejectsNegativeRate) {
  FaultSpec spec;
  spec.net_drop_rate = -0.2;
  const Status status = FaultPlan::Create(spec, 7).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("net_drop_rate"), std::string::npos);
}

TEST(FaultSpecValidationTest, RejectsNanRate) {
  FaultSpec spec;
  spec.node_outage_rate = std::nan("");
  EXPECT_EQ(FaultPlan::Create(spec, 7).status().code(),
            StatusCode::kInvalidArgument);
}

// The constructor holds every spec to the rule Create checks, and aborts
// where Create returns kInvalidArgument.
TEST(FaultSpecValidationDeathTest, ConstructorRejectsWhatCreateRejects) {
  FaultSpec above_one;
  above_one.timeout_rate = 1.1;
  EXPECT_DEATH(FaultPlan(above_one, 7), "timeout_rate");
  FaultSpec nan_rate;
  nan_rate.node_outage_rate = std::nan("");
  EXPECT_DEATH(FaultPlan(nan_rate, 7), "node_outage_rate");
}

TEST(FaultSpecValidationTest, RejectsEveryRateField) {
  // Each of the eight rate fields is individually validated; a regression
  // that drops one from the checklist fails here.
  const std::vector<void (*)(FaultSpec&)> poke = {
      [](FaultSpec& s) { s.timeout_rate = 2.0; },
      [](FaultSpec& s) { s.crash_rate = 2.0; },
      [](FaultSpec& s) { s.nan_score_rate = 2.0; },
      [](FaultSpec& s) { s.out_of_range_score_rate = 2.0; },
      [](FaultSpec& s) { s.drop_clip_rate = 2.0; },
      [](FaultSpec& s) { s.net_drop_rate = 2.0; },
      [](FaultSpec& s) { s.net_dup_rate = 2.0; },
      [](FaultSpec& s) { s.node_outage_rate = 2.0; },
  };
  for (size_t i = 0; i < poke.size(); ++i) {
    FaultSpec spec;
    poke[i](spec);
    EXPECT_EQ(ValidateFaultSpec(spec).code(), StatusCode::kInvalidArgument)
        << "rate field " << i;
  }
}

TEST(FaultSpecValidationTest, RejectsNonPositiveLengths) {
  FaultSpec spec;
  spec.crash_len_units = 0;
  EXPECT_EQ(ValidateFaultSpec(spec).code(), StatusCode::kInvalidArgument);
  spec = FaultSpec{};
  spec.node_outage_len_ms = -5;
  const Status status = ValidateFaultSpec(spec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("node_outage_len_ms"), std::string::npos);
}

TEST(FaultSpecValidationTest, RejectsMalformedWindows) {
  FaultSpec spec;
  ScheduledWindow w;
  w.from_ms = 50.0;
  w.to_ms = 10.0;  // Ends before it starts.
  spec.windows.push_back(w);
  EXPECT_EQ(ValidateFaultSpec(spec).code(), StatusCode::kInvalidArgument);
  spec.windows[0].from_ms = -1.0;
  spec.windows[0].to_ms = 10.0;
  EXPECT_EQ(ValidateFaultSpec(spec).code(), StatusCode::kInvalidArgument);
  spec.windows[0].from_ms = 10.0;
  spec.windows[0].to_ms = 10.0;  // Empty window is well-formed.
  EXPECT_TRUE(ValidateFaultSpec(spec).ok());
  spec.windows[0].to_ms = INFINITY;  // A window that never ends is not.
  EXPECT_EQ(ValidateFaultSpec(spec).code(), StatusCode::kInvalidArgument);
}

TEST(FaultSpecValidationTest, ScheduledNodeWindowsDriveNodeDown) {
  FaultSpec spec;
  ScheduledWindow w;
  w.domain = FaultDomain::kNode;
  w.key = 2;
  w.from_ms = 10.0;
  w.to_ms = 20.0;
  spec.windows.push_back(w);
  auto plan = FaultPlan::Create(spec, 3);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->NodeDown(2, 10.0));
  EXPECT_TRUE(plan->NodeDown(2, 19.9));
  EXPECT_FALSE(plan->NodeDown(2, 20.0));  // Half-open interval.
  EXPECT_FALSE(plan->NodeDown(1, 15.0));  // Other hosts unaffected.
  EXPECT_FALSE(plan->NodeDown(2, 5.0));
}

TEST(FaultSpecValidationTest, PartitionWindowsAndClearTime) {
  FaultSpec spec;
  ScheduledWindow w;
  w.domain = FaultDomain::kNetwork;
  w.from_ms = 30.0;
  w.to_ms = 60.0;
  spec.windows.push_back(w);
  auto plan = FaultPlan::Create(spec, 3);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->NetPartitioned(29.9));
  EXPECT_TRUE(plan->NetPartitioned(30.0));
  EXPECT_TRUE(plan->NetPartitioned(59.9));
  EXPECT_FALSE(plan->NetPartitioned(60.0));
  EXPECT_DOUBLE_EQ(plan->PartitionClearMs(45.0), 60.0);
}

TEST(FaultPlanTest, FaultKindNamesAreStable) {
  EXPECT_STREQ(FaultKindName(FaultKind::kNone), "None");
  EXPECT_STREQ(FaultKindName(FaultKind::kTimeout), "Timeout");
  EXPECT_STREQ(FaultKindName(FaultKind::kCrash), "Crash");
  EXPECT_STREQ(FaultKindName(FaultKind::kNanScore), "NanScore");
  EXPECT_STREQ(FaultKindName(FaultKind::kOutOfRangeScore), "OutOfRangeScore");
}

}  // namespace
}  // namespace fault
}  // namespace vaq
