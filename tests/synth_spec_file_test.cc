#include "synth/spec_file.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "synth/scenario.h"

namespace vaq {
namespace synth {
namespace {

constexpr char kSample[] = R"(
# A crossroad camera.
name = crossroad-cam
minutes = 30
fps = 10
seed = 7
frames_per_shot = 10
shots_per_clip = 10

[action]
name = loitering
duty = 0.06
mean_len_frames = 1200
drift = 1, 6, 6, 1

[object]
name = truck
background_duty = 0.05
mean_len_frames = 900
coupled_action = loitering
cover_action_prob = 0.9
mean_instances = 1.4
)";

TEST(SpecFileTest, ParsesEveryField) {
  auto spec = ParseScenarioSpec(kSample);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->name, "crossroad-cam");
  EXPECT_DOUBLE_EQ(spec->minutes, 30);
  EXPECT_DOUBLE_EQ(spec->fps, 10);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_EQ(spec->frames_per_shot, 10);
  EXPECT_EQ(spec->shots_per_clip, 10);
  ASSERT_EQ(spec->actions.size(), 1u);
  EXPECT_EQ(spec->actions[0].name, "loitering");
  EXPECT_DOUBLE_EQ(spec->actions[0].duty, 0.06);
  EXPECT_EQ(spec->actions[0].drift.multipliers,
            (std::vector<double>{1, 6, 6, 1}));
  ASSERT_EQ(spec->objects.size(), 1u);
  EXPECT_EQ(spec->objects[0].name, "truck");
  EXPECT_EQ(spec->objects[0].coupled_action, "loitering");
  EXPECT_DOUBLE_EQ(spec->objects[0].cover_action_prob, 0.9);
}

TEST(SpecFileTest, ParseErrors) {
  EXPECT_FALSE(ParseScenarioSpec("minutes = abc").ok());
  EXPECT_FALSE(ParseScenarioSpec("mystery = 1").ok());
  EXPECT_FALSE(ParseScenarioSpec("[weird]\n").ok());
  EXPECT_FALSE(ParseScenarioSpec("just a line").ok());
  EXPECT_FALSE(ParseScenarioSpec("[action]\nduty = 0.1").ok());  // No name.
  EXPECT_FALSE(ParseScenarioSpec(
                   "minutes = 1\n[object]\nname = x\ncoupled_action = ghost")
                   .ok());
  EXPECT_FALSE(ParseScenarioSpec("minutes = 0").ok());  // No frames.
  EXPECT_FALSE(ParseScenarioSpec("[action]\nname = a\ndrift = ").ok());
}

// A spec file is untrusted input: every number is finite, and every field
// that reaches a cast or the layout is checked first, so a bad value is
// InvalidArgument naming the field, never an abort or an undefined
// conversion.
TEST(SpecFileTest, OutOfRangeFieldsAreInvalidArgument) {
  const std::pair<const char*, const char*> cases[] = {
      {"frames_per_shot = 0", "frames_per_shot"},
      {"shots_per_clip = -3", "shots_per_clip"},
      {"frames_per_shot = 1e12", "frames_per_shot"},
      {"fps = nan", "fps"},
      {"minutes = 1e300", "minutes"},
      {"seed = -1", "seed"},
      {"[action]\nname = a\nmean_len_frames = nan", "mean_len_frames"},
      {"[object]\nname = o\nbackground_duty = inf", "background_duty"},
      {"[action]\nname = a\ndrift = 1, nan", "drift"},
      {"seed = 18446744073709551616", "seed"},
      {"frames_per_shot = 10.5", "frames_per_shot"},
      // Track values outside their meaning: duties and probabilities lie
      // in [0, 1], lengths and instance counts are positive.
      {"[action]\nname = a\nduty = 5", "duty"},
      {"[action]\nname = a\nduty = -1", "duty"},
      {"[action]\nname = a\nmean_len_frames = -5", "mean_len_frames"},
      {"[object]\nname = o\nbackground_duty = 3", "background_duty"},
      {"[object]\nname = o\nmean_instances = -2", "mean_instances"},
      {"[object]\nname = o\ncover_action_prob = 1.5", "cover_action_prob"},
  };
  for (const auto& [text, field] : cases) {
    const auto spec = ParseScenarioSpec(text);
    ASSERT_FALSE(spec.ok()) << text;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(spec.status().message().find(field), std::string::npos)
        << spec.status();
  }
}

// Integer fields parse as integers: a seed above 2^53 reads back
// exactly, alone and inside a whole spec.
TEST(SpecFileTest, SeedAboveTwoToThe53RoundTrips) {
  const auto spec = ParseScenarioSpec("seed = 9007199254740993");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->seed, uint64_t{9007199254740993u});
  const auto again = ParseScenarioSpec(
      "name = big-seed\nminutes = 1\nseed = 9007199254740993\n\n"
      "[action]\nname = a\nduty = 0.1\nmean_len_frames = 50\n");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->seed, spec->seed);
}

TEST(SpecFileTest, LoadFromDisk) {
  const auto dir = std::filesystem::temp_directory_path() / "vaq_specfile";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "cam.spec").string();
  std::ofstream(path) << kSample;
  auto spec = LoadScenarioSpec(path);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->name, "crossroad-cam");
  EXPECT_FALSE(LoadScenarioSpec("/no/such/file.spec").ok());
}

TEST(SpecFileTest, ScenarioBuildsFromParsedSpec) {
  auto spec = ParseScenarioSpec(kSample);
  ASSERT_TRUE(spec.ok());
  const Scenario scenario =
      Scenario::FromSpec(*spec, "loitering", {"truck"});
  EXPECT_EQ(scenario.layout().num_frames(), spec->NumFrames());
  EXPECT_TRUE(scenario.query().has_action());
  EXPECT_GT(scenario.TruthClips().TotalLength(), 0);
}

}  // namespace
}  // namespace synth
}  // namespace vaq
