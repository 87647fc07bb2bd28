// Checkpoint framing layer (DESIGN.md §10).
//
// A checkpoint *blob* is a fixed header (magic + format version) followed
// by a sequence of tagged, length-prefixed, individually checksummed
// records:
//
//   blob   := magic:u64 version:u32 record*
//   record := tag:u32 length:u32 payload:length crc:u64
//
// where crc is HashBytes (common/rng.h, FNV-1a 64-bit) of
// tag||length||payload. All integers are little-endian regardless of
// host, so blobs are portable and the golden-file test
// (tests/ckpt_golden_test.cc) pins the byte layout. Engine snapshots,
// WAL segments, metric snapshots, proxy indexes (cascade/store) and the
// ingested-video catalog (storage/catalog) all share this framing.
//
// Forward compatibility: readers skip records whose tag they do not
// recognise (the checksum is still verified), so a newer writer may add
// record types without breaking an older reader of the same format
// version. Removing or re-encoding an existing record type requires a
// kFormatVersion bump.
//
// A write-ahead log reuses the *record* framing without the blob header:
// records are appended to a bare byte stream, and a torn tail (partial
// final record after a crash) parses as a clean truncation, not an
// error. See AppendRecord / ReadRecord.
#ifndef VAQ_CKPT_SERIALIZER_H_
#define VAQ_CKPT_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/interval.h"
#include "common/status.h"

namespace vaq {
namespace ckpt {

// Bump when an existing record encoding changes incompatibly.
inline constexpr uint32_t kFormatVersion = 1;

// "VAQCKPT\x01" little-endian.
inline constexpr uint64_t kBlobMagic = 0x0154504b43514156ULL;

// Field-level payload writer: fixed-width little-endian scalars plus
// length-prefixed strings. Payloads carry no per-field tags; each record
// tag implies its payload schema (append-only within a format version).
class Payload {
 public:
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutF64(double v);  // IEEE-754 bit pattern; round-trips exactly.
  void PutBool(bool v);
  void PutString(std::string_view v);  // u32 length + bytes
  // u32 count, then one i64 lo/hi pair per interval.
  void PutIntervalSet(const IntervalSet& set);

  const std::string& data() const { return data_; }

 private:
  std::string data_;
};

// Mirror of Payload. Every getter fails with kCorruption when the
// payload is exhausted or a length prefix overruns it, so no decoder
// allocates more than the bytes it was handed.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetI64(int64_t* out);
  Status GetF64(double* out);
  Status GetBool(bool* out);
  Status GetString(std::string* out);
  // A u32 item count, rejected when `count * min_item_bytes` exceeds the
  // bytes left: read it before sizing a container by it.
  Status GetCount(uint32_t* out, size_t min_item_bytes);
  Status GetIntervalSet(IntervalSet* out);

  size_t remaining() const { return data_.size() - offset_; }

 private:
  std::string_view data_;
  size_t offset_ = 0;
};

struct Record {
  uint32_t tag = 0;
  std::string payload;
};

// Appends one framed record (tag, length, payload, checksum) to *out.
void AppendRecord(std::string* out, uint32_t tag, std::string_view payload);

// Parses one record at *offset, advancing it past the record. Returns
// kOutOfRange at a clean end of input (*offset == bytes.size()),
// kCorruption on a bad checksum, and kIoError on a torn frame (fewer
// bytes remain than the frame claims — the WAL tail after a crash).
Status ReadRecord(std::string_view bytes, size_t* offset, Record* out);

// Blob writer: header first, then AppendRecord per record.
class Serializer {
 public:
  Serializer();

  void Append(uint32_t tag, const Payload& payload) {
    AppendRecord(&blob_, tag, payload.data());
  }
  void Append(uint32_t tag, std::string_view payload) {
    AppendRecord(&blob_, tag, payload);
  }

  const std::string& blob() const { return blob_; }

 private:
  std::string blob_;
};

// Blob reader. Open() validates the header and rejects blobs written by
// a *newer* format version (kUnimplemented); older versions are read
// under this version's record schemas (append-only evolution). Version
// 0 was never written, so it is kCorruption (a flipped version bit).
class Deserializer {
 public:
  static StatusOr<Deserializer> Open(std::string_view blob);

  uint32_t version() const { return version_; }

  // Next record, in blob order. kOutOfRange at the clean end; any
  // damage (bad frame, bad checksum) is an error — snapshots, unlike
  // WAL tails, must be intact end to end.
  Status Next(Record* out);

 private:
  Deserializer(std::string_view blob, size_t offset, uint32_t version)
      : blob_(blob), offset_(offset), version_(version) {}

  std::string_view blob_;
  size_t offset_ = 0;
  uint32_t version_ = 0;
};

// Parses a full snapshot blob: header check plus every record checksum.
// The cheap way for recovery to decide whether a snapshot is usable
// before mutating any engine state.
StatusOr<std::vector<Record>> ParseBlob(std::string_view blob);

}  // namespace ckpt
}  // namespace vaq

#endif  // VAQ_CKPT_SERIALIZER_H_
