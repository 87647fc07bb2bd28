// Crash-recovery determinism for the durable standing-query runtime.
//
// The central claim of the checkpoint/recovery subsystem: killing the
// serving process at an arbitrary clip boundary, restoring the newest
// valid snapshot and replaying the WAL yields results and logical
// metrics *byte-identical* to a run that was never interrupted — with
// faults injected, with the shared detection cache on or off, through
// MemStore or an on-disk DirStore, and even when the newest snapshot is
// itself corrupt (fallback to the previous one plus a longer replay) or
// a WAL segment is damaged (replay stops there; the rest re-executes).
// Runs under ThreadSanitizer and the VAQ_SANITIZE configuration.
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/metrics_io.h"
#include "ckpt/recovery.h"
#include "ckpt/serializer.h"
#include "ckpt/store.h"
#include "fault/fault_plan.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "tools/pipeline_setup.h"

namespace vaq {
namespace serve {
namespace {

// 40 advances over 2 streams with snapshots every 7 clips: snapshots
// land after advances 7, 14, 21, 28 and 35, so the crash points below
// exercise cold start + WAL only (3), one snapshot + WAL (10), and
// multiple snapshots with an older one retained for fallback (17).
constexpr int64_t kTotalAdvances = 40;
constexpr int64_t kSnapshotEvery = 7;

tools::StandingDemoSpec DemoSpec(ckpt::Store* store,
                                 const fault::FaultPlan* plan,
                                 bool share_cache) {
  tools::StandingDemoSpec spec;
  spec.num_streams = 2;
  spec.num_queries = 6;  // Conjunctive, object-only, CNF and action-only.
  spec.seed = 11;
  spec.share_detection_cache = share_cache;
  spec.fault_plan = plan;
  spec.checkpoint_store = store;
  spec.snapshot_every_clips = kSnapshotEvery;
  return spec;
}

struct RunResult {
  std::vector<std::string> described;
  std::string metrics;  // Prometheus text, every logical family but vaq_ckpt_*.
};

// Everything except the durability subsystem's own counters must match
// byte for byte; vaq_ckpt_* legitimately differs (the recovered process
// has recoveries/corruption counts the uninterrupted one does not).
std::string NonCkptMetrics() {
  return obs::ExportPrometheus(obs::ExcludeSnapshot(
      obs::MetricRegistry::Global().TakeSnapshot(), {"vaq_ckpt_"}));
}

RunResult Collect(Server* server) {
  RunResult out;
  for (const ServedQuery& q : server->FinishStanding()) {
    out.described.push_back(DescribeServedQuery(q));
  }
  out.metrics = NonCkptMetrics();
  return out;
}

// The never-interrupted baseline, checkpoints enabled (snapshotting must
// not perturb logical results either).
StatusOr<RunResult> RunUninterrupted(const tools::StandingDemoSpec& spec) {
  obs::MetricRegistry::Global().Reset();
  VAQ_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
                       tools::MakeStandingDemoServer(spec));
  VAQ_RETURN_IF_ERROR(tools::AdmitStandingDemoWorkload(server.get(), spec));
  VAQ_RETURN_IF_ERROR(
      tools::DriveStandingDemo(server.get(), spec, kTotalAdvances));
  return Collect(server.get());
}

// Runs until `crash_after` advances, then abandons the server — no
// Finish, no final snapshot — exactly what a killed process leaves in
// the store.
Status RunUntilCrash(const tools::StandingDemoSpec& spec,
                     int64_t crash_after) {
  obs::MetricRegistry::Global().Reset();
  VAQ_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
                       tools::MakeStandingDemoServer(spec));
  VAQ_RETURN_IF_ERROR(tools::AdmitStandingDemoWorkload(server.get(), spec));
  VAQ_RETURN_IF_ERROR(
      tools::DriveStandingDemo(server.get(), spec, crash_after));
  return Status::OK();
}

struct Recovered {
  ckpt::RecoveryReport report;
  RunResult run;
};

// The restarted process: fresh registry (in-memory state died with the
// old process), fresh server, Recover(), resume to the end.
StatusOr<Recovered> RecoverAndFinish(const tools::StandingDemoSpec& spec) {
  obs::MetricRegistry::Global().Reset();
  VAQ_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
                       tools::MakeStandingDemoServer(spec));
  VAQ_ASSIGN_OR_RETURN(ckpt::RecoveryReport report, server->Recover());
  VAQ_RETURN_IF_ERROR(
      tools::DriveStandingDemo(server.get(), spec, kTotalAdvances));
  Recovered out;
  out.report = report;
  out.run = Collect(server.get());
  return out;
}

int64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name, {})->value();
}

TEST(CkptRecoveryTest, RecoveredRunsAreByteIdenticalAtEveryCrashPoint) {
  const fault::FaultPlan plan(tools::DemoFaultSpec(), /*seed=*/21);
  ckpt::MemStore ref_store;
  const auto reference = RunUninterrupted(DemoSpec(&ref_store, &plan, true));
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference.value().described.size(), 6u);

  struct CrashPoint {
    int64_t advances;
    std::string snapshot;  // Expected restore source; empty = cold start.
  };
  const CrashPoint points[] = {
      {3, ""},                      // Before any snapshot: WAL-only replay.
      {10, ckpt::SnapshotName(0)},  // One snapshot plus a WAL suffix.
      {17, ckpt::SnapshotName(1)},  // Newest of two retained snapshots.
  };
  for (const CrashPoint& point : points) {
    SCOPED_TRACE("crash after " + std::to_string(point.advances) +
                 " advances");
    ckpt::MemStore store;
    const tools::StandingDemoSpec spec = DemoSpec(&store, &plan, true);
    ASSERT_TRUE(RunUntilCrash(spec, point.advances).ok());
    const auto recovered = RecoverAndFinish(spec);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered.value().report.snapshot, point.snapshot);
    EXPECT_EQ(recovered.value().report.snapshots_rejected, 0);
    EXPECT_GT(recovered.value().report.wal_records, 0);
    EXPECT_EQ(recovered.value().report.wal_bytes_dropped, 0);
    EXPECT_EQ(recovered.value().run.described, reference.value().described);
    EXPECT_EQ(recovered.value().run.metrics, reference.value().metrics);
    EXPECT_EQ(CounterValue("vaq_ckpt_recoveries_total"), 1);
    EXPECT_EQ(CounterValue("vaq_ckpt_corrupt_total"), 0);
  }
}

TEST(CkptRecoveryTest, RecoveredRunsAreByteIdenticalAtAllCrashPoints) {
  // The full sweep: crash after EVERY advance count in (0, kTotal), not
  // just the three representative points above — every WAL offset,
  // every snapshot boundary, every boundary±1. ~40 recoveries of an
  // inference-heavy session is too slow for the sanitizer configs, and
  // the representative points already run there, so the sweep is
  // plain-config only.
#ifdef VAQ_UNDER_SANITIZER
  GTEST_SKIP() << "full crash-point sweep runs in the plain config only";
#else
  const fault::FaultPlan plan(tools::DemoFaultSpec(), /*seed=*/21);
  ckpt::MemStore ref_store;
  const auto reference = RunUninterrupted(DemoSpec(&ref_store, &plan, true));
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (int64_t crash = 1; crash < kTotalAdvances; ++crash) {
    SCOPED_TRACE("crash after " + std::to_string(crash) + " advances");
    ckpt::MemStore store;
    const tools::StandingDemoSpec spec = DemoSpec(&store, &plan, true);
    ASSERT_TRUE(RunUntilCrash(spec, crash).ok());
    const auto recovered = RecoverAndFinish(spec);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    // Retention keeps the newest snapshot and its predecessor; the
    // restore source is always the newest one taken before the crash.
    const int64_t snapshots_taken = crash / kSnapshotEvery;
    EXPECT_EQ(recovered.value().report.snapshot,
              snapshots_taken == 0
                  ? ""
                  : ckpt::SnapshotName(snapshots_taken - 1));
    EXPECT_EQ(recovered.value().report.snapshots_rejected, 0);
    EXPECT_EQ(recovered.value().report.wal_bytes_dropped, 0);
    EXPECT_EQ(recovered.value().run.described, reference.value().described);
    EXPECT_EQ(recovered.value().run.metrics, reference.value().metrics);
    EXPECT_EQ(CounterValue("vaq_ckpt_recoveries_total"), 1);
    EXPECT_EQ(CounterValue("vaq_ckpt_corrupt_total"), 0);
  }
#endif
}

TEST(CkptRecoveryTest, PrivateBundleRecoveryIsByteIdentical) {
  // Same claim with the shared detection cache off: per-query bundles
  // carry their own cumulative model stats through the snapshot.
  const fault::FaultPlan plan(tools::DemoFaultSpec(), /*seed=*/21);
  ckpt::MemStore ref_store;
  const auto reference = RunUninterrupted(DemoSpec(&ref_store, &plan, false));
  ASSERT_TRUE(reference.ok()) << reference.status();

  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, &plan, false);
  ASSERT_TRUE(RunUntilCrash(spec, 10).ok());
  const auto recovered = RecoverAndFinish(spec);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().run.described, reference.value().described);
  EXPECT_EQ(recovered.value().run.metrics, reference.value().metrics);
}

TEST(CkptRecoveryTest, DirStoreRecoverySurvivesProcessReopen) {
  // End to end through the filesystem: the "process" that crashes and
  // the one that recovers hold distinct DirStore instances on the same
  // directory, the way two vaqctl invocations would.
  const fault::FaultPlan plan(tools::DemoFaultSpec(), /*seed=*/21);
  ckpt::MemStore ref_store;
  const auto reference = RunUninterrupted(DemoSpec(&ref_store, &plan, true));
  ASSERT_TRUE(reference.ok()) << reference.status();

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ckpt_recovery_dirstore";
  std::filesystem::remove_all(dir);
  {
    ckpt::DirStore store(dir.string());
    ASSERT_TRUE(RunUntilCrash(DemoSpec(&store, &plan, true), 17).ok());
  }
  ckpt::DirStore reopened(dir.string());
  const auto recovered = RecoverAndFinish(DemoSpec(&reopened, &plan, true));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().report.snapshot, ckpt::SnapshotName(1));
  EXPECT_EQ(recovered.value().run.described, reference.value().described);
  EXPECT_EQ(recovered.value().run.metrics, reference.value().metrics);
  std::filesystem::remove_all(dir);
}

TEST(CkptRecoveryTest, TornWalTailIsDroppedAndRecoveryStillExact) {
  // A crash mid-append leaves a partial record at the end of the newest
  // WAL segment. Replay must stop there, count the dropped bytes, and
  // the resumed run must still match the reference — the torn tail never
  // held committed work.
  const fault::FaultPlan plan(tools::DemoFaultSpec(), /*seed=*/21);
  ckpt::MemStore ref_store;
  const auto reference = RunUninterrupted(DemoSpec(&ref_store, &plan, true));
  ASSERT_TRUE(reference.ok()) << reference.status();

  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, &plan, true);
  ASSERT_TRUE(RunUntilCrash(spec, 10).ok());
  // Frame a record, then append only its first five bytes.
  std::string framed;
  ckpt::AppendRecord(&framed, /*tag=*/2, "never committed");
  ASSERT_TRUE(store.Append(ckpt::WalName(1), framed.substr(0, 5)).ok());

  const auto recovered = RecoverAndFinish(spec);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().report.wal_bytes_dropped, 5);
  EXPECT_EQ(recovered.value().run.described, reference.value().described);
  EXPECT_EQ(recovered.value().run.metrics, reference.value().metrics);
}

// --- Stored-byte damage ---------------------------------------------------
//
// Corruption is a changed byte in the store, made with
// ckpt::CorruptEntryByte after the crash; recovery reads the bytes as
// stored. A crash after 17 advances leaves snap-0, snap-1, wal-1 (the
// records after snap-0, up to snap-1) and wal-2 (the records after
// snap-1).

// Flips the lowest bit of the middle byte of snapshot `name`: inside its
// records, where it fails a record checksum, not in the 12-byte header
// (where it could read as a newer format version, kUnimplemented).
void FlipSnapshotBodyByte(ckpt::Store* store, const std::string& name) {
  const auto bytes = store->Get(name);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  ASSERT_GT(bytes->size(), 24u);
  ASSERT_TRUE(ckpt::CorruptEntryByte(
                  store, name, static_cast<int64_t>(bytes->size() / 2), 0x01)
                  .ok());
}

int64_t EntrySize(const ckpt::Store& store, const std::string& name) {
  const auto bytes = store.Get(name);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? static_cast<int64_t>(bytes->size()) : -1;
}

TEST(CkptRecoveryTest, CorruptNewestSnapshotFallsBackToPrevious) {
  // A damaged snap-1 must fall back to snap-0 and replay both WAL
  // segments, and still reproduce the reference run exactly.
  const fault::FaultPlan plan(tools::DemoFaultSpec(), /*seed=*/21);
  ckpt::MemStore ref_store;
  const auto reference = RunUninterrupted(DemoSpec(&ref_store, &plan, true));
  ASSERT_TRUE(reference.ok()) << reference.status();

  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, &plan, true);
  ASSERT_TRUE(RunUntilCrash(spec, 17).ok());
  FlipSnapshotBodyByte(&store, ckpt::SnapshotName(1));
  const auto recovered = RecoverAndFinish(spec);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().report.snapshot, ckpt::SnapshotName(0));
  EXPECT_EQ(recovered.value().report.snapshots_rejected, 1);
  EXPECT_EQ(CounterValue("vaq_ckpt_corrupt_total"), 1);
  EXPECT_EQ(CounterValue("vaq_ckpt_recoveries_total"), 1);
  EXPECT_EQ(recovered.value().run.described, reference.value().described);
  EXPECT_EQ(recovered.value().run.metrics, reference.value().metrics);
}

TEST(CkptRecoveryTest, EverySnapshotCorruptIsAnError) {
  const fault::FaultPlan plan(tools::DemoFaultSpec(), /*seed=*/21);
  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, &plan, true);
  ASSERT_TRUE(RunUntilCrash(spec, 17).ok());
  FlipSnapshotBodyByte(&store, ckpt::SnapshotName(0));
  FlipSnapshotBodyByte(&store, ckpt::SnapshotName(1));

  obs::MetricRegistry::Global().Reset();
  auto server = tools::MakeStandingDemoServer(spec);
  ASSERT_TRUE(server.ok());
  const auto report = server.value()->Recover();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(CounterValue("vaq_ckpt_corrupt_total"), 2);
}

TEST(CkptRecoveryTest, DamagedWalSegmentDropsEveryLaterSegment) {
  // With snap-1 damaged, recovery restores snap-0 and must replay wal-1
  // then wal-2. A flipped byte in wal-1's first record stops replay
  // there: every byte from it on is dropped, wal-2 included, since a
  // later record has no trustworthy predecessor. The resumed run then
  // re-executes every advance after snap-0 and still matches the
  // reference exactly.
  const fault::FaultPlan plan(tools::DemoFaultSpec(), /*seed=*/21);
  ckpt::MemStore ref_store;
  const auto reference = RunUninterrupted(DemoSpec(&ref_store, &plan, true));
  ASSERT_TRUE(reference.ok()) << reference.status();

  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, &plan, true);
  ASSERT_TRUE(RunUntilCrash(spec, 17).ok());
  FlipSnapshotBodyByte(&store, ckpt::SnapshotName(1));
  // Byte 0 is the first record's tag, which its checksum covers.
  ASSERT_TRUE(
      ckpt::CorruptEntryByte(&store, ckpt::WalName(1), 0, 0x01).ok());
  const int64_t wal_bytes =
      EntrySize(store, ckpt::WalName(1)) + EntrySize(store, ckpt::WalName(2));

  const auto recovered = RecoverAndFinish(spec);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().report.snapshot, ckpt::SnapshotName(0));
  EXPECT_EQ(recovered.value().report.wal_records, 0);
  EXPECT_EQ(recovered.value().report.wal_bytes_dropped, wal_bytes);
  EXPECT_EQ(recovered.value().run.described, reference.value().described);
  EXPECT_EQ(recovered.value().run.metrics, reference.value().metrics);
}

TEST(CkptRecoveryTest, RecoverGuardsItsPreconditions) {
  // No store configured.
  {
    tools::StandingDemoSpec spec = DemoSpec(nullptr, nullptr, true);
    auto server = tools::MakeStandingDemoServer(spec);
    ASSERT_TRUE(server.ok());
    EXPECT_EQ(server.value()->Recover().status().code(),
              StatusCode::kFailedPrecondition);
  }
  // Not a fresh server: a query was already admitted.
  {
    ckpt::MemStore store;
    tools::StandingDemoSpec spec = DemoSpec(&store, nullptr, true);
    auto server = tools::MakeStandingDemoServer(spec);
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE(tools::AdmitStandingDemoWorkload(server.value().get(), spec)
                    .ok());
    EXPECT_EQ(server.value()->Recover().status().code(),
              StatusCode::kFailedPrecondition);
  }
  // The log admits a query over a stream the recovering server lacks: an
  // error, not an abort.
  {
    ckpt::MemStore store;
    tools::StandingDemoSpec spec = DemoSpec(&store, nullptr, true);
    ASSERT_TRUE(RunUntilCrash(spec, 3).ok());
    spec.num_streams = 1;
    auto server = tools::MakeStandingDemoServer(spec);
    ASSERT_TRUE(server.ok());
    EXPECT_EQ(server.value()->Recover().status().code(),
              StatusCode::kCorruption);
  }
}

TEST(CkptRecoveryTest, RetiredEngineBlobLayoutsAreRejected) {
  // Snapshots written before the online engines were merged carry engine
  // blobs of layout 1 (conjunctive) or 2 (CNF). Recovery names the layout
  // instead of misreading the blob.
  for (const uint32_t layout : {1u, 2u}) {
    ckpt::Payload standing;
    standing.PutI64(0);  // Query id.
    standing.PutString("SELECT MERGE(clipID) FROM cam0 WHERE act='walking'");
    standing.PutBool(true);   // Status OK.
    standing.PutBool(false);  // Not finished.
    standing.PutU32(layout);
    standing.PutString("");   // Engine blob.
    for (int model = 0; model < 2; ++model) {
      standing.PutI64(0);  // inferences
      standing.PutI64(0);  // type_queries
      standing.PutF64(0);  // simulated_ms
      for (int counter = 0; counter < 5; ++counter) standing.PutI64(0);
    }
    standing.PutI64(0);  // Clips pruned.
    ckpt::Serializer snapshot;
    snapshot.Append(/*kSnapStanding=*/1, standing);
    ckpt::MemStore store;
    ASSERT_TRUE(store.Put(ckpt::SnapshotName(0), snapshot.blob()).ok());

    obs::MetricRegistry::Global().Reset();
    auto server =
        tools::MakeStandingDemoServer(DemoSpec(&store, nullptr, true));
    ASSERT_TRUE(server.ok());
    const auto report = server.value()->Recover();
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kUnimplemented);
    EXPECT_NE(report.status().message().find("engine-blob layout " +
                                             std::to_string(layout)),
              std::string::npos)
        << report.status();
  }
}

TEST(CkptRecoveryTest, CheckpointsCarrySpanCountsButNoWallTime) {
  // Wall time belongs to the process that measured it: a checkpoint
  // taken after a span closed holds the span's count, not its duration.
  obs::MetricRegistry::Global().Reset();
  { VAQ_TRACE_SPAN("ckpt_test/before_checkpoint"); }
  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, nullptr, true);
  auto server = tools::MakeStandingDemoServer(spec);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(tools::AdmitStandingDemoWorkload(server.value().get(), spec)
                  .ok());
  ASSERT_TRUE(server.value()->Checkpoint().ok());
  const auto blob = store.Get(ckpt::SnapshotName(0));
  ASSERT_TRUE(blob.ok()) << blob.status();
  EXPECT_NE(blob.value().find("ckpt_test/before_checkpoint"),
            std::string::npos);
  EXPECT_EQ(blob.value().find("vaq_wall_"), std::string::npos);
}

TEST(CkptRecoveryTest, MetricOfAnotherShapeFailsRecoveryWithoutAbort) {
  // A checkpoint written by a build whose family had other buckets: the
  // recovery fails with a Status, and no instrument is overwritten —
  // not even one the snapshot lists before the mismatch.
  obs::MetricRegistry::Global().Reset();
  obs::Counter* counter =
      obs::MetricRegistry::Global().GetCounter("vaq_ckpt_test_total");
  counter->Increment(5);
  obs::Histogram* histogram =
      obs::MetricRegistry::Global().GetHistogram("vaq_ckpt_test_ms");
  histogram->Observe(3.0);

  obs::Snapshot::Entry restorable;
  restorable.name = "vaq_ckpt_test_total";
  restorable.counter_value = 9;
  obs::Snapshot::Entry reshaped;
  reshaped.name = "vaq_ckpt_test_ms";
  reshaped.kind = obs::Snapshot::Kind::kHistogram;
  reshaped.bounds = {1, 2};
  reshaped.bucket_counts = {0, 1, 0};
  reshaped.hist_count = 1;
  reshaped.hist_sum = 1.5;
  ckpt::Serializer snapshot;
  for (const obs::Snapshot::Entry* entry : {&restorable, &reshaped}) {
    ckpt::Payload metric;
    ckpt::EncodeMetricEntry(*entry, &metric);
    snapshot.Append(/*kSnapMetric=*/6, metric);
  }
  ckpt::MemStore store;
  ASSERT_TRUE(store.Put(ckpt::SnapshotName(0), snapshot.blob()).ok());

  auto server =
      tools::MakeStandingDemoServer(DemoSpec(&store, nullptr, true));
  ASSERT_TRUE(server.ok());
  const auto report = server.value()->Recover();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("vaq_ckpt_test_ms"),
            std::string::npos)
      << report.status();
  EXPECT_EQ(counter->value(), 5);
  EXPECT_EQ(histogram->count(), 1);
  EXPECT_EQ(histogram->sum(), 3.0);
}

// The records of a real snapshot: the demo workload admitted, advanced
// three clips and checkpointed.
void DemoSnapshotRecords(std::vector<ckpt::Record>* records) {
  obs::MetricRegistry::Global().Reset();
  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, nullptr, true);
  auto server = tools::MakeStandingDemoServer(spec);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(tools::AdmitStandingDemoWorkload(server.value().get(), spec)
                  .ok());
  ASSERT_TRUE(tools::DriveStandingDemo(server.value().get(), spec, 3).ok());
  ASSERT_TRUE(server.value()->Checkpoint().ok());
  const auto blob = store.Get(ckpt::SnapshotName(0));
  ASSERT_TRUE(blob.ok()) << blob.status();
  auto parsed = ckpt::ParseBlob(blob.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  *records = std::move(parsed).value();
}

// `records` resealed as a snapshot blob, with valid checksums. The first
// record tagged `tag` has its leading fields replaced: `rewrite` reads
// them from the old payload and writes their replacement; the rest of
// that payload, and every other record, is kept as read.
std::string Reseal(
    const std::vector<ckpt::Record>& records, uint32_t tag,
    const std::function<void(ckpt::PayloadReader*, ckpt::Payload*)>&
        rewrite) {
  ckpt::Serializer resealed;
  bool replaced = false;
  for (const ckpt::Record& record : records) {
    if (record.tag != tag || replaced) {
      resealed.Append(record.tag, record.payload);
      continue;
    }
    ckpt::PayloadReader in(record.payload);
    ckpt::Payload head;
    rewrite(&in, &head);
    resealed.Append(
        record.tag,
        head.data() +
            record.payload.substr(record.payload.size() - in.remaining()));
    replaced = true;
  }
  EXPECT_TRUE(replaced) << "the snapshot has no record tagged " << tag;
  return resealed.blob();
}

// Recovers a fresh demo server from a store whose only snapshot is `blob`.
Status RecoverFromSnapshot(const std::string& blob) {
  ckpt::MemStore store;
  VAQ_RETURN_IF_ERROR(store.Put(ckpt::SnapshotName(0), blob));
  obs::MetricRegistry::Global().Reset();
  auto server = tools::MakeStandingDemoServer(DemoSpec(&store, nullptr, true));
  if (!server.ok()) return server.status();
  return server.value()->Recover().status();
}

TEST(CkptRecoveryTest, StatusCodeOutsideTheEnumerationFailsRecovery) {
  // A failed standing query's status is stored as (ok=false, code,
  // message). Code 0 would restore the failure as OK and a code past
  // the last enumerator as a status no code names, so both are damage.
  std::vector<ckpt::Record> records;
  ASSERT_NO_FATAL_FAILURE(DemoSnapshotRecords(&records));
  const uint32_t past_last =
      static_cast<uint32_t>(StatusCode::kResourceExhausted) + 1;
  for (const uint32_t code : {0u, past_last}) {
    // The first standing record (tag 1: id, sql, status, then the rest)
    // with the failed status `code`.
    const std::string blob = Reseal(
        records, /*kSnapStanding=*/1,
        [code](ckpt::PayloadReader* in, ckpt::Payload* head) {
          int64_t id = 0;
          std::string sql;
          bool ok = false;
          ASSERT_TRUE(in->GetI64(&id).ok());
          ASSERT_TRUE(in->GetString(&sql).ok());
          ASSERT_TRUE(in->GetBool(&ok).ok());
          ASSERT_TRUE(ok) << "the demo's standing queries admit cleanly";
          head->PutI64(id);
          head->PutString(sql);
          head->PutBool(false);
          head->PutU32(code);
          head->PutString("failed before the checkpoint");
        });
    EXPECT_EQ(RecoverFromSnapshot(blob).code(), StatusCode::kCorruption)
        << "code " << code;
  }
}

TEST(CkptRecoveryTest, IdOrSequenceOutsideItsRangeFailsRecovery) {
  // Recovery steps past a standing query's id and the snapshot's
  // sequence (id + 1, seq + 1), so a negative value or INT64_MAX is
  // damage, not a signed overflow.
  std::vector<ckpt::Record> records;
  ASSERT_NO_FATAL_FAILURE(DemoSnapshotRecords(&records));
  for (const int64_t bad : {int64_t{-1}, std::numeric_limits<int64_t>::max()}) {
    SCOPED_TRACE("value " + std::to_string(bad));
    // The first standing record's id (tag 1: id first).
    const std::string bad_id =
        Reseal(records, /*kSnapStanding=*/1,
               [bad](ckpt::PayloadReader* in, ckpt::Payload* head) {
                 int64_t id = 0;
                 ASSERT_TRUE(in->GetI64(&id).ok());
                 head->PutI64(bad);
               });
    EXPECT_EQ(RecoverFromSnapshot(bad_id).code(), StatusCode::kCorruption);
    // The meta record's next id or sequence (tag 5: next id, sequence).
    for (const bool sequence : {false, true}) {
      const std::string bad_meta = Reseal(
          records, /*kSnapMeta=*/5,
          [bad, sequence](ckpt::PayloadReader* in, ckpt::Payload* head) {
            int64_t next_id = 0;
            int64_t seq = 0;
            ASSERT_TRUE(in->GetI64(&next_id).ok());
            ASSERT_TRUE(in->GetI64(&seq).ok());
            head->PutI64(sequence ? next_id : bad);
            head->PutI64(sequence ? bad : seq);
          });
      EXPECT_EQ(RecoverFromSnapshot(bad_meta).code(), StatusCode::kCorruption)
          << (sequence ? "sequence" : "next id");
    }
  }
}

// Copies a ModelStats payload (seven counts and the simulated ms).
void CopyModelStats(ckpt::PayloadReader* in, ckpt::Payload* out) {
  for (int field = 0; field < 8; ++field) {
    if (field == 2) {  // simulated_ms, after inferences and type queries.
      double ms = 0;
      ASSERT_TRUE(in->GetF64(&ms).ok());
      out->PutF64(ms);
      continue;
    }
    int64_t count = 0;
    ASSERT_TRUE(in->GetI64(&count).ok());
    out->PutI64(count);
  }
}

TEST(CkptRecoveryTest, CountersOutsideTheirRangeFailRecovery) {
  // The server adds to every count it restores (admissions, cache
  // reuses, pruned clips, model calls), so a negative value or INT64_MAX
  // is damage, not a signed overflow on the next admission or clip.
  std::vector<ckpt::Record> records;
  ASSERT_NO_FATAL_FAILURE(DemoSnapshotRecords(&records));
  struct Field {
    const char* name;
    uint32_t tag;
    // Copies the record's fields in front of the counter.
    std::function<void(ckpt::PayloadReader*, ckpt::Payload*)> copy_head;
  };
  const std::vector<Field> fields = {
      // Tag 1: id, sql, status, finished, layout, engine blob, the
      // detector and recognizer stats, then clips_pruned.
      {"standing clips_pruned", /*kSnapStanding=*/1,
       [](ckpt::PayloadReader* in, ckpt::Payload* head) {
         int64_t id = 0;
         std::string sql, engine_blob;
         bool ok = false, finished = false;
         uint32_t layout = 0;
         ASSERT_TRUE(in->GetI64(&id).ok());
         ASSERT_TRUE(in->GetString(&sql).ok());
         ASSERT_TRUE(in->GetBool(&ok).ok());
         ASSERT_TRUE(ok) << "the demo's standing queries admit cleanly";
         ASSERT_TRUE(in->GetBool(&finished).ok());
         ASSERT_TRUE(in->GetU32(&layout).ok());
         ASSERT_TRUE(in->GetString(&engine_blob).ok());
         head->PutI64(id);
         head->PutString(sql);
         head->PutBool(ok);
         head->PutBool(finished);
         head->PutU32(layout);
         head->PutString(engine_blob);
         ASSERT_NO_FATAL_FAILURE(CopyModelStats(in, head));
         ASSERT_NO_FATAL_FAILURE(CopyModelStats(in, head));
       }},
      // Tag 3: a shared bundle's (source, stack), then its detector's
      // stats, inferences first.
      {"bundle detector inferences", /*kSnapBundleStats=*/3,
       [](ckpt::PayloadReader* in, ckpt::Payload* head) {
         bool owned = true, has_detector = false;
         std::string source, stack;
         ASSERT_TRUE(in->GetBool(&owned).ok());
         ASSERT_FALSE(owned) << "the demo shares its model bundles";
         ASSERT_TRUE(in->GetString(&source).ok());
         ASSERT_TRUE(in->GetString(&stack).ok());
         ASSERT_TRUE(in->GetBool(&has_detector).ok());
         ASSERT_TRUE(has_detector) << stack;
         head->PutBool(owned);
         head->PutString(source);
         head->PutString(stack);
         head->PutBool(has_detector);
       }},
      // Tag 4: bundles created, then reuses.
      {"cache bundles created", /*kSnapCacheCounters=*/4,
       [](ckpt::PayloadReader*, ckpt::Payload*) {}},
      // Tag 5: next id, sequence, then the accepted count.
      {"meta accepted", /*kSnapMeta=*/5,
       [](ckpt::PayloadReader* in, ckpt::Payload* head) {
         int64_t next_id = 0, seq = 0;
         ASSERT_TRUE(in->GetI64(&next_id).ok());
         ASSERT_TRUE(in->GetI64(&seq).ok());
         head->PutI64(next_id);
         head->PutI64(seq);
       }},
  };
  for (const Field& field : fields) {
    SCOPED_TRACE(field.name);
    // The snapshot with the counter replaced by `value`, or kept as read.
    const auto with = [&records, &field](std::optional<int64_t> value) {
      return Reseal(records, field.tag,
                    [&](ckpt::PayloadReader* in, ckpt::Payload* head) {
                      ASSERT_NO_FATAL_FAILURE(field.copy_head(in, head));
                      int64_t read = 0;
                      ASSERT_TRUE(in->GetI64(&read).ok());
                      head->PutI64(value.value_or(read));
                    });
    };
    // The record as read recovers: only the values below are the damage.
    ASSERT_TRUE(RecoverFromSnapshot(with(std::nullopt)).ok());
    for (const int64_t bad :
         {int64_t{-1}, std::numeric_limits<int64_t>::max()}) {
      EXPECT_EQ(RecoverFromSnapshot(with(bad)).code(), StatusCode::kCorruption)
          << "value " << bad;
    }
  }
}

TEST(CkptRecoveryTest, StreamCursorOutsideItsStreamFailsRecovery) {
  // A stream-position record (tag 2: stream name, cursor) holds what an
  // advance can leave: a registered stream, a cursor in [0, clips].
  std::vector<ckpt::Record> records;
  ASSERT_NO_FATAL_FAILURE(DemoSnapshotRecords(&records));
  const auto position = [&records](const std::string& stream_override,
                                   int64_t cursor_offset) {
    return Reseal(records, /*kSnapStreamPos=*/2,
                  [&](ckpt::PayloadReader* in, ckpt::Payload* head) {
                    std::string stream;
                    int64_t cursor = 0;
                    ASSERT_TRUE(in->GetString(&stream).ok());
                    ASSERT_TRUE(in->GetI64(&cursor).ok());
                    head->PutString(stream_override.empty() ? stream
                                                            : stream_override);
                    head->PutI64(cursor + cursor_offset);
                  });
  };
  // The record as read recovers: only the value below is the damage.
  ASSERT_TRUE(RecoverFromSnapshot(position("", 0)).ok());
  // The demo advanced each stream at most 3 clips: -5 puts it below 0.
  EXPECT_EQ(RecoverFromSnapshot(position("", -5)).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(RecoverFromSnapshot(position("", int64_t{1} << 40)).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(RecoverFromSnapshot(position("cam9", 0)).code(),
            StatusCode::kCorruption);
}

TEST(CkptRecoveryTest, EmptyStoreRecoversToColdStartAndRunsNormally) {
  // `vaqctl recover` on a directory nobody has served into yet: cold
  // start, then the session proceeds as if freshly configured.
  obs::MetricRegistry::Global().Reset();
  ckpt::MemStore store;
  const tools::StandingDemoSpec spec = DemoSpec(&store, nullptr, true);
  auto server = tools::MakeStandingDemoServer(spec);
  ASSERT_TRUE(server.ok());
  const auto report = server.value()->Recover();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report.value().snapshot.empty());
  EXPECT_EQ(report.value().wal_records, 0);
  ASSERT_TRUE(tools::AdmitStandingDemoWorkload(server.value().get(), spec)
                  .ok());
  ASSERT_TRUE(
      tools::DriveStandingDemo(server.value().get(), spec, kTotalAdvances)
          .ok());
  EXPECT_EQ(server.value()->FinishStanding().size(), 6u);
}

}  // namespace
}  // namespace serve
}  // namespace vaq
