// Deterministic, seeded fault injection.
//
// Production deployments of VAQ spend >98% of their runtime inside a
// black-box perception service (§5.2) that times out, crashes and
// occasionally returns garbage, and serve score tables from storage that
// can lose pages. `FaultPlan` is the single source of truth for *when*
// such faults happen: every decision is a pure function of
// (seed, domain, coordinate), so a plan can be consulted from any layer,
// in any order, any number of times, and always yields the identical
// fault schedule — the same property the simulated models rely on.
//
// Two constructions matter:
//
//  * Decisions are threshold tests `uniform(hash) < rate`, so raising a
//    rate strictly *adds* faults to the schedule of a lower rate with the
//    same seed. Fault-rate sweeps (bench_resilience) are therefore
//    monotone by construction, not just in expectation.
//  * Outages ("crashes") are block-structured: the occurrence-unit axis
//    is divided into `crash_len_units`-sized windows and a whole window
//    is down with probability `crash_rate`. The expected fraction of
//    units inside an outage equals `crash_rate`.
//
// Per-attempt faults (timeouts, garbage scores, page-read errors) take an
// attempt nonce supplied by the caller, so a retry of the same logical
// read draws a fresh fault decision while staying deterministic for the
// run as a whole.
#ifndef VAQ_FAULT_FAULT_PLAN_H_
#define VAQ_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace vaq {
namespace fault {

// Independent fault streams of one plan; a detector outage says nothing
// about the recognizer or storage.
enum class FaultDomain : uint64_t {
  kDetector = 1,
  kRecognizer = 2,
  kTracker = 3,
  kStorage = 4,
  kStream = 5,
  kCheckpoint = 6,
  kNetwork = 7,
  kNode = 8,
};

// What happened to one model-call attempt.
enum class FaultKind {
  kNone = 0,
  kTimeout,          // The attempt exceeds its deadline budget.
  kCrash,            // The model is inside an outage window.
  kNanScore,         // The attempt returns NaN.
  kOutOfRangeScore,  // The attempt returns a score outside [0, 1].
};

const char* FaultKindName(FaultKind kind);

// One schedule-driven fault window: key `key` of `domain` is down over
// the half-open virtual-time interval [from_ms, to_ms). Unlike the rate
// parameters below — which describe a *distribution* the seed samples —
// a window is an explicit event: the chaos harness (src/chaos) composes
// node kill/restart and network partitions out of these.
//
//   * kNode: `key` is the host id (-1 = every host).
//   * kNetwork: a partition; `key` is ignored (the whole fabric).
struct ScheduledWindow {
  FaultDomain domain = FaultDomain::kNode;
  int64_t key = -1;
  double from_ms = 0.0;
  double to_ms = 0.0;
};

// Fault rates; all default to zero (an empty plan injects nothing).
struct FaultSpec {
  // Per-attempt probability that a model call times out.
  double timeout_rate = 0.0;
  // Fraction of occurrence units covered by outage windows.
  double crash_rate = 0.0;
  // Outage window length in occurrence units (frames for the detector,
  // shots for the recognizer).
  int64_t crash_len_units = 256;
  // Per-attempt probabilities of garbage scores.
  double nan_score_rate = 0.0;
  double out_of_range_score_rate = 0.0;
  // Per-clip probability that the clip's observations are lost entirely
  // (e.g. the camera feed dropped the segment).
  double drop_clip_rate = 0.0;
  // Per-attempt probability that a storage page write fails while ingest
  // materializes a score table (offline::Ingestor).
  double page_error_rate = 0.0;
  // Per-read probability that a checkpoint store entry comes back with a
  // flipped bit (media corruption; see ckpt::RecoveryDriver).
  double checkpoint_corrupt_rate = 0.0;
  // Per-transmission probability that a cluster network message copy is
  // lost (cluster::Net retransmits after an RTO; each attempt draws a
  // fresh decision).
  double net_drop_rate = 0.0;
  // Per-message probability that the network delivers a second, later
  // copy of the message (receivers dedup by (link, seq)).
  double net_dup_rate = 0.0;
  // Fraction of virtual time each cluster node spends inside an outage
  // window (block-structured like crash_rate, but on the millisecond
  // axis of fault::SimClock).
  double node_outage_rate = 0.0;
  // Node outage window length in virtual milliseconds.
  int64_t node_outage_len_ms = 50;
  // Explicit schedule-driven windows, consulted in addition to the rates
  // (NodeDown, NetPartitioned).
  std::vector<ScheduledWindow> windows;

  bool any() const {
    return timeout_rate > 0.0 || crash_rate > 0.0 || nan_score_rate > 0.0 ||
           out_of_range_score_rate > 0.0 || drop_clip_rate > 0.0 ||
           page_error_rate > 0.0 || checkpoint_corrupt_rate > 0.0 ||
           net_drop_rate > 0.0 || net_dup_rate > 0.0 ||
           node_outage_rate > 0.0 || !windows.empty();
  }
};

// Validates a spec: every rate must lie in [0, 1], every length must be
// positive, every window must be a well-formed non-negative interval.
// kInvalidArgument (naming the offending field) otherwise. A rate of 1.1
// or a negative latency silently *changes* the schedule semantics — 1.1
// faults every coordinate, a negative length divides by it — so the
// validated construction path (FaultPlan::Create) refuses them.
Status ValidateFaultSpec(const FaultSpec& spec);

class FaultPlan {
 public:
  FaultPlan(FaultSpec spec, uint64_t seed);

  // The validated construction path: ValidateFaultSpec first,
  // kInvalidArgument instead of a plan that silently misbehaves.
  static StatusOr<FaultPlan> Create(FaultSpec spec, uint64_t seed);

  const FaultSpec& spec() const { return spec_; }
  uint64_t seed() const { return seed_; }

  // True when `unit` lies inside an outage window of `domain`. Pure
  // position-based: retries during an outage keep failing.
  bool CrashActive(FaultDomain domain, int64_t unit) const;

  // Fault decision for one model-call attempt at `unit`. `attempt` is a
  // caller-maintained monotone nonce (fresh per retry). Outages dominate;
  // the per-attempt faults are drawn from one coupled uniform so raising
  // any rate only adds faults.
  FaultKind ProbeCall(FaultDomain domain, int64_t unit,
                      int64_t attempt) const;

  // True when clip `clip`'s observations are dropped wholesale.
  bool DropClip(int64_t clip) const;

  // True when the `attempt`-th access of storage page `page` fails.
  bool PageReadFails(int64_t page, int64_t attempt) const;

  // True when a read of checkpoint entry `entry` (a stable hash of the
  // entry name) returns corrupted bytes. Position-based like outages:
  // re-reading the same entry keeps returning the same corruption, which
  // is what forces recovery to fall back to an older snapshot.
  bool CheckpointCorrupts(int64_t entry) const;

  // Which bit of the corrupted entry flips, as a fraction of its length
  // in [0, 1). Only meaningful when CheckpointCorrupts(entry).
  double CheckpointCorruptPosition(int64_t entry) const;

  // True when the `attempt`-th transmission of message `seq` on `link`
  // is lost in flight (cluster::Net schedules a retransmission).
  bool NetDrops(int64_t link, int64_t seq, int64_t attempt) const;

  // True when the network spontaneously delivers a duplicate copy of
  // message `seq` on `link`. Position-based: the same message always
  // duplicates (or not) for a given plan.
  bool NetDuplicates(int64_t link, int64_t seq) const;

  // True when cluster node `node` is inside an outage window at virtual
  // time `at_ms`. Block-structured on the SimClock axis; pure
  // position-based, so probing any (node, time) in any order yields the
  // same outage schedule. Scheduled kNode windows are honored in
  // addition to the rate-driven blocks, so a node "restarts" the moment
  // its window ends.
  bool NodeDown(int64_t node, double at_ms) const;

  // True when a scheduled kNetwork window (a partition) covers `at_ms`.
  // cluster::Net consults this at transmission time: copies sent inside
  // a partition are lost and retransmitted, so a partition delays
  // traffic but never changes what is ultimately delivered.
  bool NetPartitioned(double at_ms) const;

  // The earliest instant at or after `at_ms` outside every partition
  // window (= `at_ms` itself when not partitioned). Overlapping windows
  // are chained.
  double PartitionClearMs(double at_ms) const;

 private:
  FaultSpec spec_;
  uint64_t seed_;
};

}  // namespace fault
}  // namespace vaq

#endif  // VAQ_FAULT_FAULT_PLAN_H_
