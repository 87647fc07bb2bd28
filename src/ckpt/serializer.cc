#include "ckpt/serializer.h"

#include <cstring>
#include <string>
#include <vector>

namespace vaq {
namespace ckpt {

namespace {

// Explicit little-endian encoding keeps blobs byte-stable across hosts
// (and keeps the golden file honest even if the build moves).
void PutLe32(std::string* out, uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>((v >> 8) & 0xff);
  b[2] = static_cast<char>((v >> 16) & 0xff);
  b[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(b, 4);
}

void PutLe64(std::string* out, uint64_t v) {
  PutLe32(out, static_cast<uint32_t>(v & 0xffffffffULL));
  PutLe32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetLe32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

uint64_t GetLe64(const char* p) {
  return static_cast<uint64_t>(GetLe32(p)) |
         static_cast<uint64_t>(GetLe32(p + 4)) << 32;
}

}  // namespace

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t hash = 14695981039346656037ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

void Payload::PutU32(uint32_t v) { PutLe32(&data_, v); }
void Payload::PutU64(uint64_t v) { PutLe64(&data_, v); }
void Payload::PutI64(int64_t v) { PutLe64(&data_, static_cast<uint64_t>(v)); }

void Payload::PutF64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutLe64(&data_, bits);
}

void Payload::PutBool(bool v) { data_.push_back(v ? '\1' : '\0'); }

void Payload::PutString(std::string_view v) {
  PutLe32(&data_, static_cast<uint32_t>(v.size()));
  data_.append(v.data(), v.size());
}

void Payload::PutIntervalSet(const IntervalSet& set) {
  PutU32(static_cast<uint32_t>(set.size()));
  for (const Interval& iv : set.intervals()) {
    PutI64(iv.lo);
    PutI64(iv.hi);
  }
}

Status PayloadReader::GetU32(uint32_t* out) {
  if (remaining() < 4) return Status::Corruption("payload underrun (u32)");
  *out = GetLe32(data_.data() + offset_);
  offset_ += 4;
  return Status::OK();
}

Status PayloadReader::GetU64(uint64_t* out) {
  if (remaining() < 8) return Status::Corruption("payload underrun (u64)");
  *out = GetLe64(data_.data() + offset_);
  offset_ += 8;
  return Status::OK();
}

Status PayloadReader::GetI64(int64_t* out) {
  uint64_t v = 0;
  Status s = GetU64(&v);
  if (!s.ok()) return s;
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status PayloadReader::GetF64(double* out) {
  uint64_t bits = 0;
  Status s = GetU64(&bits);
  if (!s.ok()) return s;
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status PayloadReader::GetBool(bool* out) {
  if (remaining() < 1) return Status::Corruption("payload underrun (bool)");
  *out = data_[offset_++] != '\0';
  return Status::OK();
}

Status PayloadReader::GetString(std::string* out) {
  uint32_t size = 0;
  VAQ_RETURN_IF_ERROR(GetCount(&size, 1));
  out->assign(data_.data() + offset_, size);
  offset_ += size;
  return Status::OK();
}

Status PayloadReader::GetCount(uint32_t* out, size_t min_item_bytes) {
  VAQ_RETURN_IF_ERROR(GetU32(out));
  if (static_cast<uint64_t>(*out) * min_item_bytes > remaining()) {
    return Status::Corruption("payload underrun: count " +
                              std::to_string(*out) + " exceeds the " +
                              std::to_string(remaining()) + " bytes left");
  }
  return Status::OK();
}

Status PayloadReader::GetIntervalSet(IntervalSet* out) {
  uint32_t n = 0;
  VAQ_RETURN_IF_ERROR(GetCount(&n, 2 * sizeof(int64_t)));
  std::vector<Interval> intervals(n);
  for (Interval& iv : intervals) {
    VAQ_RETURN_IF_ERROR(GetI64(&iv.lo));
    VAQ_RETURN_IF_ERROR(GetI64(&iv.hi));
  }
  *out = IntervalSet::FromIntervals(std::move(intervals));
  return Status::OK();
}

void AppendRecord(std::string* out, uint32_t tag, std::string_view payload) {
  const size_t frame_start = out->size();
  PutLe32(out, tag);
  PutLe32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload.data(), payload.size());
  const uint64_t crc = Fnv1a64(out->data() + frame_start,
                               out->size() - frame_start);
  PutLe64(out, crc);
}

Status ReadRecord(std::string_view bytes, size_t* offset, Record* out) {
  const size_t start = *offset;
  if (start == bytes.size()) return Status::OutOfRange("end of records");
  if (bytes.size() - start < 8) return Status::IoError("torn record header");
  const uint32_t tag = GetLe32(bytes.data() + start);
  const uint32_t length = GetLe32(bytes.data() + start + 4);
  if (bytes.size() - start - 8 < static_cast<size_t>(length) + 8) {
    return Status::IoError("torn record body");
  }
  const uint64_t want = GetLe64(bytes.data() + start + 8 + length);
  const uint64_t got = Fnv1a64(bytes.data() + start, 8 + length);
  if (want != got) return Status::Corruption("record checksum mismatch");
  out->tag = tag;
  out->payload.assign(bytes.data() + start + 8, length);
  *offset = start + 8 + length + 8;
  return Status::OK();
}

Serializer::Serializer() {
  PutLe64(&blob_, kBlobMagic);
  PutLe32(&blob_, kFormatVersion);
}

StatusOr<Deserializer> Deserializer::Open(std::string_view blob) {
  if (blob.size() < 12) return Status::Corruption("checkpoint header torn");
  if (GetLe64(blob.data()) != kBlobMagic) {
    return Status::Corruption("bad checkpoint magic");
  }
  const uint32_t version = GetLe32(blob.data() + 8);
  if (version == 0) return Status::Corruption("bad checkpoint version 0");
  if (version > kFormatVersion) {
    return Status::Unimplemented("checkpoint format version " +
                                 std::to_string(version) +
                                 " is newer than this build");
  }
  return Deserializer(blob, /*offset=*/12, version);
}

Status Deserializer::Next(Record* out) {
  Status s = ReadRecord(blob_, &offset_, out);
  // A torn frame inside a snapshot blob is corruption, not a WAL-style
  // clean truncation.
  if (s.code() == StatusCode::kIoError) {
    return Status::Corruption(s.message());
  }
  return s;
}

StatusOr<std::vector<Record>> ParseBlob(std::string_view blob) {
  auto reader = Deserializer::Open(blob);
  if (!reader.ok()) return reader.status();
  std::vector<Record> records;
  Record record;
  for (;;) {
    Status s = reader.value().Next(&record);
    if (s.code() == StatusCode::kOutOfRange) break;
    if (!s.ok()) return s;
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace ckpt
}  // namespace vaq
