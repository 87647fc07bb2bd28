// Crash recovery over a checkpoint store (DESIGN.md §10).
//
// A durable session leaves two kinds of entries in its Store:
//
//   snap-<seq>   full snapshot blobs (Serializer framing), monotone seq
//   wal-<seq>    bare record stream logged *after* snapshot <seq>-1 and
//                up to (and including the trigger of) snapshot <seq>
//
// Segmenting the WAL by snapshot sequence is what makes the corruption
// fallback sound: restoring snap-S replays segments wal-K with K > S, so
// a session that keeps snap-(S-1), snap-S and wal-S can fall back from a
// corrupt snap-S to snap-(S-1) and still reach the same state (stale
// records — positions the snapshot already covers — are the hooks' job
// to skip idempotently).
//
// `RecoveryDriver::Run` restores the newest snapshot that parses clean
// (magic, version, every record checksum), falling back to older ones —
// counting each rejection in `vaq_ckpt_corrupt_total` — and then replays
// the WAL segments after it through the caller's hooks, stopping at the
// first torn or corrupt record (the tail a crash may leave behind). The
// *semantics* of records live entirely in the hooks; the driver only
// owns framing and snapshot selection. It reads the stored bytes as they
// are: corruption is a changed byte in the store (CorruptEntryByte in
// ckpt/store.h), never a fault injected on the read path.
//
// Recovery invariants (asserted by tests/ckpt_recovery_test.cc):
//  1. restore(snapshot) + replay(wal suffix) is byte-identical — results
//     and logical metrics — to the uninterrupted run, at any crash point;
//  2. a corrupt newest snapshot degrades to the previous one, never to
//     an error, as long as one valid snapshot (or cold start) remains;
//  3. replaying a WAL that predates the snapshot is harmless (hooks see
//     the records; stale ones must be idempotent to skip by position).
#ifndef VAQ_CKPT_RECOVERY_H_
#define VAQ_CKPT_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/serializer.h"
#include "ckpt/store.h"
#include "common/status.h"

namespace vaq {
namespace ckpt {

inline constexpr char kSnapshotPrefix[] = "snap-";
inline constexpr char kWalPrefix[] = "wal-";

// "snap-00000042" — zero-padded so List() order is seq order.
std::string SnapshotName(int64_t seq);
// kInvalidArgument when `name` is not a snapshot entry name.
StatusOr<int64_t> SnapshotSeq(const std::string& name);
// "wal-00000042" and its inverse, same conventions.
std::string WalName(int64_t seq);
StatusOr<int64_t> WalSeq(const std::string& name);

struct RecoveryHooks {
  // Applies a fully validated snapshot (records in blob order).
  // `version` is the blob's format version.
  std::function<Status(uint32_t version, const std::vector<Record>& records)>
      restore;
  // Applies one WAL record. Called after restore, in log order.
  std::function<Status(const Record& record)> replay;
};

struct RecoveryReport {
  std::string snapshot;            // Entry restored; empty = cold start.
  int64_t snapshots_rejected = 0;  // Corrupt snapshots skipped over.
  int64_t wal_records = 0;         // Records replayed.
  int64_t wal_bytes_dropped = 0;   // Torn/corrupt WAL tail discarded.
};

class RecoveryDriver {
 public:
  // `store` is not owned.
  explicit RecoveryDriver(const Store* store) : store_(store) {}

  // Restore-then-replay. Fails only when every snapshot is corrupt and
  // there is no cold-start path left, or a hook fails; an empty store
  // recovers to a cold start with an empty report.
  StatusOr<RecoveryReport> Run(const RecoveryHooks& hooks) const;

 private:
  const Store* store_;
};

}  // namespace ckpt
}  // namespace vaq

#endif  // VAQ_CKPT_RECOVERY_H_
