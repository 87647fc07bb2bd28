// Checkpoint framing and store unit tests: payload round-trips (incl.
// F64 bit-exactness), record framing and checksums, blob header checks,
// unknown-tag forward compatibility, torn-WAL-tail truncation semantics,
// sequence-numbered entry names, and MemStore/DirStore contract parity.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/metrics_io.h"
#include "ckpt/recovery.h"
#include "ckpt/serializer.h"
#include "ckpt/store.h"

namespace vaq {
namespace ckpt {
namespace {

TEST(PayloadTest, RoundTripsEveryFieldType) {
  Payload payload;
  payload.PutU32(0xDEADBEEFu);
  payload.PutU64(0x0123456789ABCDEFull);
  payload.PutI64(-42);
  payload.PutF64(0.1);  // Not exactly representable: bit pattern must survive.
  payload.PutBool(true);
  payload.PutBool(false);
  payload.PutString("durability");
  payload.PutString("");  // Empty strings are legal.
  const IntervalSet set =
      IntervalSet::FromIntervals({Interval(0, 3), Interval(9, 9)});
  payload.PutIntervalSet(set);  // u32 count + one i64 lo/hi pair each.
  const size_t set_bytes = 4 + 2 * 16;

  PayloadReader reader(payload.data());
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  bool b1 = false, b2 = true;
  std::string s1, s2;
  ASSERT_TRUE(reader.GetU32(&u32).ok());
  ASSERT_TRUE(reader.GetU64(&u64).ok());
  ASSERT_TRUE(reader.GetI64(&i64).ok());
  ASSERT_TRUE(reader.GetF64(&f64).ok());
  ASSERT_TRUE(reader.GetBool(&b1).ok());
  ASSERT_TRUE(reader.GetBool(&b2).ok());
  ASSERT_TRUE(reader.GetString(&s1).ok());
  ASSERT_TRUE(reader.GetString(&s2).ok());
  EXPECT_EQ(reader.remaining(), set_bytes);
  IntervalSet set_back;
  ASSERT_TRUE(reader.GetIntervalSet(&set_back).ok());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f64, 0.1);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_EQ(s1, "durability");
  EXPECT_EQ(s2, "");
  EXPECT_EQ(set_back, set);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(PayloadTest, F64RoundTripIsBitExact) {
  // The metric-identity guarantee rests on doubles surviving a snapshot
  // bit for bit, including non-finite and denormal values.
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           1.0 / 3.0,
                           std::nan("")};
  for (const double v : values) {
    Payload payload;
    payload.PutF64(v);
    PayloadReader reader(payload.data());
    double got = 0;
    ASSERT_TRUE(reader.GetF64(&got).ok());
    uint64_t want_bits = 0, got_bits = 0;
    static_assert(sizeof(want_bits) == sizeof(v));
    std::memcpy(&want_bits, &v, sizeof(v));
    std::memcpy(&got_bits, &got, sizeof(got));
    EXPECT_EQ(got_bits, want_bits);
  }
}

TEST(PayloadTest, UnderrunIsCorruption) {
  Payload payload;
  payload.PutU32(7);
  PayloadReader reader(payload.data());
  uint64_t u64 = 0;  // Wider than what was written.
  EXPECT_EQ(reader.GetU64(&u64).code(), StatusCode::kCorruption);

  // A string length prefix that overruns the payload is also corruption,
  // not a crash.
  Payload lying;
  lying.PutU32(1000);  // Claims 1000 bytes follow; none do.
  PayloadReader sreader(lying.data());
  std::string s;
  EXPECT_EQ(sreader.GetString(&s).code(), StatusCode::kCorruption);
}

TEST(PayloadTest, HugeCountsAreCorruptionNotAllocations) {
  // Checksum-valid payloads whose counts claim far more items than the
  // bytes that follow must fail before anything is sized by the count.
  Payload bare;
  bare.PutU32(0xFFFFFFFFu);
  bare.PutF64(1.0);
  {
    PayloadReader reader(bare.data());
    uint32_t n = 0;
    EXPECT_EQ(reader.GetCount(&n, sizeof(double)).code(),
              StatusCode::kCorruption);
  }
  {
    PayloadReader reader(bare.data());
    IntervalSet set;
    EXPECT_EQ(reader.GetIntervalSet(&set).code(), StatusCode::kCorruption);
  }
  {
    // A count that fits is accepted, and leaves its items to be read.
    Payload fits;
    fits.PutU32(2);
    fits.PutF64(1.0);
    fits.PutF64(2.0);
    PayloadReader reader(fits.data());
    uint32_t n = 0;
    ASSERT_TRUE(reader.GetCount(&n, sizeof(double)).ok());
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(reader.remaining(), 2 * sizeof(double));
  }

  // A histogram that claims 2^32-1 bounds (whose bucket count n+1 would
  // also wrap to 0 in u32 arithmetic).
  Payload histogram;
  histogram.PutString("vaq_latency_ms");
  histogram.PutU32(static_cast<uint32_t>(obs::Snapshot::Kind::kHistogram));
  histogram.PutU32(0);  // No labels.
  histogram.PutU32(0xFFFFFFFFu);
  histogram.PutF64(1.0);
  obs::Snapshot::Entry entry;
  PayloadReader hist_reader(histogram.data());
  EXPECT_EQ(DecodeMetricEntry(&hist_reader, &entry).code(),
            StatusCode::kCorruption);

  Payload labels;
  labels.PutString("vaq_queries_total");
  labels.PutU32(static_cast<uint32_t>(obs::Snapshot::Kind::kCounter));
  labels.PutU32(0xFFFFFFFFu);
  PayloadReader label_reader(labels.data());
  EXPECT_EQ(DecodeMetricEntry(&label_reader, &entry).code(),
            StatusCode::kCorruption);
}

TEST(RecordTest, AppendReadRoundTrip) {
  std::string log;
  AppendRecord(&log, /*tag=*/3, "first");
  AppendRecord(&log, /*tag=*/9, "");
  AppendRecord(&log, /*tag=*/3, "third");

  size_t offset = 0;
  Record record;
  ASSERT_TRUE(ReadRecord(log, &offset, &record).ok());
  EXPECT_EQ(record.tag, 3u);
  EXPECT_EQ(record.payload, "first");
  ASSERT_TRUE(ReadRecord(log, &offset, &record).ok());
  EXPECT_EQ(record.tag, 9u);
  EXPECT_EQ(record.payload, "");
  ASSERT_TRUE(ReadRecord(log, &offset, &record).ok());
  EXPECT_EQ(record.payload, "third");
  // Clean end of input.
  EXPECT_EQ(ReadRecord(log, &offset, &record).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(offset, log.size());
}

TEST(RecordTest, BitFlipFailsChecksum) {
  std::string log;
  AppendRecord(&log, /*tag=*/1, "payload bytes");
  for (size_t i = 0; i < log.size(); ++i) {
    std::string damaged = log;
    damaged[i] ^= 0x01;
    size_t offset = 0;
    Record record;
    const Status s = ReadRecord(damaged, &offset, &record);
    // Any single-bit flip is caught: either the checksum fails, or the
    // corrupted length makes the frame torn / oversized.
    EXPECT_FALSE(s.ok()) << "flip at byte " << i;
    EXPECT_NE(s.code(), StatusCode::kOutOfRange) << "flip at byte " << i;
  }
}

TEST(RecordTest, TornTailIsIoErrorNotCorruption) {
  // A crash mid-append leaves a partial final record. That must parse as
  // a truncation (kIoError), distinguishable from checksum corruption —
  // WAL replay treats it as the end of the usable log.
  std::string log;
  AppendRecord(&log, /*tag=*/2, "committed");
  const size_t committed = log.size();
  AppendRecord(&log, /*tag=*/2, "torn write");
  for (size_t cut = committed + 1; cut < log.size(); ++cut) {
    const std::string torn = log.substr(0, cut);
    size_t offset = 0;
    Record record;
    ASSERT_TRUE(ReadRecord(torn, &offset, &record).ok());
    EXPECT_EQ(record.payload, "committed");
    EXPECT_EQ(ReadRecord(torn, &offset, &record).code(), StatusCode::kIoError)
        << "cut at byte " << cut;
  }
}

TEST(BlobTest, SerializerDeserializerRoundTrip) {
  Payload p1;
  p1.PutI64(77);
  Serializer serializer;
  serializer.Append(/*tag=*/1, p1);
  serializer.Append(/*tag=*/2, "raw payload");

  auto reader = Deserializer::Open(serializer.blob());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader.value().version(), kFormatVersion);
  Record record;
  ASSERT_TRUE(reader.value().Next(&record).ok());
  EXPECT_EQ(record.tag, 1u);
  PayloadReader pr(record.payload);
  int64_t i64 = 0;
  ASSERT_TRUE(pr.GetI64(&i64).ok());
  EXPECT_EQ(i64, 77);
  ASSERT_TRUE(reader.value().Next(&record).ok());
  EXPECT_EQ(record.payload, "raw payload");
  EXPECT_EQ(reader.value().Next(&record).code(), StatusCode::kOutOfRange);

  auto records = ParseBlob(serializer.blob());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 2u);
  EXPECT_EQ(records.value()[1].tag, 2u);
}

TEST(BlobTest, RejectsBadMagicAndNewerVersion) {
  Serializer serializer;
  serializer.Append(/*tag=*/1, "x");
  std::string blob = serializer.blob();

  std::string bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(Deserializer::Open(bad_magic).status().code(),
            StatusCode::kCorruption);
  EXPECT_FALSE(ParseBlob(bad_magic).ok());

  // Bump the version field (bytes 8..11, little-endian) past ours: a
  // newer writer's blob must be refused, not misread.
  std::string newer = blob;
  newer[8] = static_cast<char>(kFormatVersion + 1);
  EXPECT_EQ(Deserializer::Open(newer).status().code(),
            StatusCode::kUnimplemented);

  // Version 0 was never written: flipping bit 0 of the version byte must
  // not turn a v1 blob into an accepted "older" one.
  std::string v0 = blob;
  v0[8] ^= 0x01;
  EXPECT_EQ(Deserializer::Open(v0).status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(ParseBlob(v0).ok());

  EXPECT_EQ(Deserializer::Open("short").status().code(),
            StatusCode::kCorruption);
}

TEST(BlobTest, SnapshotsRejectTornRecords) {
  // Unlike a WAL, a snapshot must be intact end to end: a torn final
  // record makes the whole blob unusable.
  Serializer serializer;
  serializer.Append(/*tag=*/1, "only record");
  const std::string torn = serializer.blob().substr(0, serializer.blob().size() - 3);
  EXPECT_FALSE(ParseBlob(torn).ok());
  auto reader = Deserializer::Open(torn);
  ASSERT_TRUE(reader.ok());
  Record record;
  EXPECT_EQ(reader.value().Next(&record).code(), StatusCode::kCorruption);
}

TEST(NamesTest, SequenceNamesSortAndParse) {
  EXPECT_EQ(SnapshotName(0), "snap-00000000");
  EXPECT_EQ(SnapshotName(42), "snap-00000042");
  EXPECT_EQ(WalName(7), "wal-00000007");
  EXPECT_LT(SnapshotName(9), SnapshotName(10));  // Lexical == numeric.
  ASSERT_TRUE(SnapshotSeq("snap-00000042").ok());
  EXPECT_EQ(SnapshotSeq("snap-00000042").value(), 42);
  ASSERT_TRUE(WalSeq("wal-00000007").ok());
  EXPECT_EQ(WalSeq("wal-00000007").value(), 7);
  EXPECT_FALSE(SnapshotSeq("wal-00000007").ok());
  EXPECT_FALSE(WalSeq("snap-00000042").ok());
  EXPECT_FALSE(SnapshotSeq("snap-").ok());
  EXPECT_FALSE(SnapshotSeq("snap-12x4").ok());
  EXPECT_TRUE(ValidEntryName(SnapshotName(3)));
  EXPECT_TRUE(ValidEntryName(WalName(3)));
}

// A directory of this suite under the test temp dir. The san.* duplicate
// of this suite runs beside it under ctest -j, so it keeps its own.
std::filesystem::path SuiteDir(const std::string& name) {
#ifdef VAQ_UNDER_SANITIZER
  return std::filesystem::path(::testing::TempDir()) / (name + "_san");
#else
  return std::filesystem::path(::testing::TempDir()) / name;
#endif
}

// The Store contract, run against both implementations.
class StoreContractTest : public ::testing::TestWithParam<bool> {
 protected:
  StoreContractTest() {
    if (GetParam()) {
      dir_ = SuiteDir("ckpt_store_test_" +
                      std::to_string(::testing::UnitTest::GetInstance()
                                         ->random_seed()) +
                      "_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
      std::filesystem::remove_all(dir_);
      store_ = std::make_unique<DirStore>(dir_.string());
    } else {
      store_ = std::make_unique<MemStore>();
    }
  }
  ~StoreContractTest() override {
    store_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<Store> store_;
  std::filesystem::path dir_;
};

TEST_P(StoreContractTest, PutGetReplaceDelete) {
  EXPECT_EQ(store_->Get("absent").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(store_->Put("snap-00000000", "v1").ok());
  ASSERT_TRUE(store_->Put("snap-00000000", "v2").ok());  // Replace.
  auto got = store_->Get("snap-00000000");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "v2");
  ASSERT_TRUE(store_->Delete("snap-00000000").ok());
  EXPECT_EQ(store_->Get("snap-00000000").status().code(),
            StatusCode::kNotFound);
  // Deleting a missing entry is fine — truncation must be idempotent.
  EXPECT_TRUE(store_->Delete("snap-00000000").ok());
}

TEST_P(StoreContractTest, AppendCreatesAndExtends) {
  ASSERT_TRUE(store_->Append("wal-00000000", "abc").ok());
  ASSERT_TRUE(store_->Append("wal-00000000", "def").ok());
  auto got = store_->Get("wal-00000000");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "abcdef");
}

TEST_P(StoreContractTest, ListIsSortedAndComplete) {
  ASSERT_TRUE(store_->Put("wal-00000001", "w").ok());
  ASSERT_TRUE(store_->Put("snap-00000001", "b").ok());
  ASSERT_TRUE(store_->Put("snap-00000000", "a").ok());
  auto names = store_->List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(),
            (std::vector<std::string>{"snap-00000000", "snap-00000001",
                                      "wal-00000001"}));
}

TEST_P(StoreContractTest, RejectsInvalidEntryNames) {
  EXPECT_FALSE(ValidEntryName(""));
  EXPECT_FALSE(ValidEntryName("a/b"));
  EXPECT_FALSE(ValidEntryName("../escape"));
  EXPECT_FALSE(ValidEntryName("#temp"));
  EXPECT_FALSE(store_->Put("a/b", "x").ok());
  EXPECT_FALSE(store_->Append("../escape", "x").ok());
  EXPECT_FALSE(store_->Get("#temp").ok());
}

INSTANTIATE_TEST_SUITE_P(MemAndDir, StoreContractTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "DirStore" : "MemStore";
                         });

TEST(DirStoreTest, SurvivesReopenAndIgnoresTempLeftovers) {
  const std::filesystem::path dir = SuiteDir("ckpt_dirstore_reopen");
  std::filesystem::remove_all(dir);
  {
    DirStore store(dir.string());
    ASSERT_TRUE(store.Put("snap-00000000", "persisted").ok());
  }
  // A crash between temp-write and rename leaves a "#"-prefixed file;
  // a reopened store must not surface it as an entry.
  {
    std::ofstream leftover(dir / "#snap-00000001");
    leftover << "partial";
  }
  DirStore reopened(dir.string());
  auto names = reopened.List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), std::vector<std::string>{"snap-00000000"});
  auto got = reopened.Get("snap-00000000");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "persisted");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ckpt
}  // namespace vaq
