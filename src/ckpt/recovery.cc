#include "ckpt/recovery.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/metrics.h"

namespace vaq {
namespace ckpt {

namespace {

obs::Counter* CorruptCounter() {
  return obs::MetricRegistry::Global().GetCounter("vaq_ckpt_corrupt_total",
                                                  {});
}

}  // namespace

namespace {

std::string SeqName(const char* prefix, int64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08lld", prefix,
                static_cast<long long>(seq));
  return buf;
}

StatusOr<int64_t> SeqOf(const char* prefix, const std::string& name) {
  const std::string p = prefix;
  if (name.rfind(p, 0) != 0 || name.size() <= p.size()) {
    return Status::InvalidArgument("not a '" + p + "' entry: '" + name +
                                   "'");
  }
  int64_t seq = 0;
  for (size_t i = p.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return Status::InvalidArgument("not a '" + p + "' entry: '" + name +
                                     "'");
    }
    seq = seq * 10 + (name[i] - '0');
  }
  return seq;
}

}  // namespace

std::string SnapshotName(int64_t seq) { return SeqName(kSnapshotPrefix, seq); }

StatusOr<int64_t> SnapshotSeq(const std::string& name) {
  return SeqOf(kSnapshotPrefix, name);
}

std::string WalName(int64_t seq) { return SeqName(kWalPrefix, seq); }

StatusOr<int64_t> WalSeq(const std::string& name) {
  return SeqOf(kWalPrefix, name);
}

StatusOr<RecoveryReport> RecoveryDriver::Run(
    const RecoveryHooks& hooks) const {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  RecoveryReport report;

  auto names = store_->List();
  if (!names.ok()) return names.status();
  std::vector<std::string> snapshots;
  for (const std::string& name : names.value()) {
    if (SnapshotSeq(name).ok()) snapshots.push_back(name);
  }
  std::sort(snapshots.rbegin(), snapshots.rend());  // Newest first.

  // Newest snapshot that parses clean wins; corrupt ones are counted and
  // skipped. No snapshot at all is a cold start, not an error.
  for (const std::string& name : snapshots) {
    auto blob = store_->Get(name);
    if (!blob.ok()) return blob.status();
    auto records = ParseBlob(blob.value());
    if (!records.ok()) {
      CorruptCounter()->Increment();
      ++report.snapshots_rejected;
      continue;
    }
    auto reader = Deserializer::Open(blob.value());
    VAQ_RETURN_IF_ERROR(hooks.restore(reader.value().version(),
                                      records.value()));
    report.snapshot = name;
    break;
  }
  if (report.snapshot.empty() && !snapshots.empty() &&
      report.snapshots_rejected ==
          static_cast<int64_t>(snapshots.size())) {
    return Status::Corruption("every checkpoint snapshot is corrupt");
  }

  // WAL replay: segments newer than the restored snapshot, in sequence
  // order (segment wal-K holds the records logged after snapshot K-1, so
  // snap-S needs K > S; a cold start replays everything). Replay stops at
  // the first torn or corrupt record — the tail a crash may leave behind
  // — and everything after it, including later segments, is dropped: once
  // the log is damaged, later records have no trustworthy predecessor.
  int64_t restored_seq = -1;
  if (!report.snapshot.empty()) {
    restored_seq = SnapshotSeq(report.snapshot).value();
  }
  std::vector<std::pair<int64_t, std::string>> segments;
  for (const std::string& name : names.value()) {
    auto seq = WalSeq(name);
    if (seq.ok() && seq.value() > restored_seq) {
      segments.emplace_back(seq.value(), name);
    }
  }
  std::sort(segments.begin(), segments.end());
  bool damaged = false;
  for (const auto& [seq, name] : segments) {
    auto wal = store_->Get(name);
    if (!wal.ok()) {
      if (wal.status().code() == StatusCode::kNotFound) continue;
      return wal.status();
    }
    const std::string& bytes = wal.value();
    if (damaged) {
      report.wal_bytes_dropped += static_cast<int64_t>(bytes.size());
      continue;
    }
    size_t offset = 0;
    Record record;
    for (;;) {
      const Status s = ReadRecord(bytes, &offset, &record);
      if (s.code() == StatusCode::kOutOfRange) break;
      if (!s.ok()) {
        report.wal_bytes_dropped += static_cast<int64_t>(bytes.size() - offset);
        damaged = true;
        break;
      }
      VAQ_RETURN_IF_ERROR(hooks.replay(record));
      ++report.wal_records;
    }
  }

  registry.GetCounter("vaq_ckpt_wal_records_replayed_total", {})
      ->Increment(report.wal_records);
  registry.GetCounter("vaq_ckpt_recoveries_total", {})->Increment();
  return report;
}

}  // namespace ckpt
}  // namespace vaq
