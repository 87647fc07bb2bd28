// Text format for scenario specifications.
//
// Lets tools (vaqctl) and experiments define custom evaluation videos
// without recompiling. The format is line-oriented `key = value` with
// `[action]` / `[object]` section headers starting a new track:
//
//   name = crossroad-cam
//   minutes = 120
//   fps = 10
//   seed = 7
//   frames_per_shot = 10
//   shots_per_clip = 10
//
//   [action]
//   name = loitering
//   duty = 0.06
//   mean_len_frames = 1200
//   drift = 1, 6, 6, 1
//
//   [object]
//   name = truck
//   background_duty = 0.05
//   mean_len_frames = 900
//   coupled_action = loitering
//   cover_action_prob = 0.9
//   mean_instances = 1.4
//
// `#` starts a comment; blank lines are ignored; unknown keys are
// errors (typos should not pass silently).
#ifndef VAQ_SYNTH_SPEC_FILE_H_
#define VAQ_SYNTH_SPEC_FILE_H_

#include <string>

#include "common/status.h"
#include "synth/generator.h"

namespace vaq {
namespace synth {

// Parses the text form of a scenario specification.
StatusOr<ScenarioSpec> ParseScenarioSpec(const std::string& text);

// Reads and parses a spec file from disk.
StatusOr<ScenarioSpec> LoadScenarioSpec(const std::string& path);

}  // namespace synth
}  // namespace vaq

#endif  // VAQ_SYNTH_SPEC_FILE_H_
