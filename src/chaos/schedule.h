// Chaos fault schedules and the replay format.
//
// A schedule is an explicit list of adversarial events applied to the
// chaos run only — the difference between the reference world and the
// tortured one. Standing events are anchored to the advance counter
// ("crash after N clip advances"); cluster events are windows on the
// fault::SimClock virtual-millisecond axis ("host 2 down over
// [30, 80)"). Every event is designed to be *result-transparent*: the
// stack under test claims that crashes recover byte-identically, that
// corruption falls back to the predecessor snapshot, that kills fail
// over and partitions only delay. The oracles (chaos/trial.h) check
// exactly that claim, so each event is independently removable — the
// property delta-debugging shrinking (chaos/shrink.h) relies on.
//
// A ReplaySpec is the whole reproducer: (sweep seed, trial index)
// regenerate the scenario, `events` overrides the schedule. Serialized
// as a small hand-rolled JSON document (the repo carries no JSON
// dependency) stable enough to paste into a bug report:
//
//   {"chaos_replay": 1, "seed": 1, "trial": 17, "canary": false,
//    "events": [{"kind": "crash_restart", "at_advance": 9}]}
#ifndef VAQ_CHAOS_SCHEDULE_H_
#define VAQ_CHAOS_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/scenario.h"
#include "common/status.h"

namespace vaq {
namespace chaos {

enum class EventKind {
  // Standing-phase events (at_advance-anchored).
  kCrashRestart = 0,  // Crash after `at_advance` advances; recover.
  kTornAdvance,       // Crash between WAL append and apply; recover.
  kCorruptSnapshot,   // Flip a byte of the newest snapshot (needs >= 2
                      // snapshots retained, else skipped: the fallback
                      // must exist for recovery to be guaranteed).
  kForceCheckpoint,   // Checkpoint() outside the automatic cadence.
  // Cluster-phase events ([from_ms, to_ms) windows).
  kNodeKill,          // `host` down for the window, back up after.
  kNetPartition,      // The whole fabric partitioned for the window.
};

const char* EventKindName(EventKind kind);

struct ChaosEvent {
  EventKind kind = EventKind::kCrashRestart;
  int64_t at_advance = 0;  // Standing events: applied after this many
                           // session-wide advances.
  int64_t host = -1;       // kNodeKill.
  double from_ms = 0.0;    // Window events.
  double to_ms = 0.0;

  bool operator==(const ChaosEvent& other) const {
    return kind == other.kind && at_advance == other.at_advance &&
           host == other.host && from_ms == other.from_ms &&
           to_ms == other.to_ms;
  }
};

using Schedule = std::vector<ChaosEvent>;

// Draws the schedule for one trial. Seeded independently of the
// scenario draw (see MakeTrialScenario), so replays can substitute a
// shrunk schedule without perturbing the scenario.
Schedule GenerateSchedule(const TrialScenario& scenario, uint64_t seed);

// Everything needed to re-run one trial byte-identically.
struct ReplaySpec {
  uint64_t seed = 1;
  int64_t trial = 0;
  bool canary = false;  // The test-only injected bug (chaos/trial.h).
  Schedule events;
};

std::string ReplayToJson(const ReplaySpec& spec);
StatusOr<ReplaySpec> ReplayFromJson(const std::string& json);

}  // namespace chaos
}  // namespace vaq

#endif  // VAQ_CHAOS_SCHEDULE_H_
