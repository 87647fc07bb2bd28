#include "storage/catalog.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ckpt/serializer.h"

namespace vaq {
namespace storage {
namespace {

// Record tags of a catalog entry. Append-only within a format version.
constexpr uint32_t kTagHeader = 1;
constexpr uint32_t kTagObject = 2;
constexpr uint32_t kTagAction = 3;

Status BadName(const std::string& name) {
  return Status::InvalidArgument("bad video name '" + name +
                                 "': use only [A-Za-z0-9._-]");
}

std::string EncodeVideo(const VideoIndex& index) {
  ckpt::Serializer out;
  ckpt::Payload header;
  header.PutI64(index.video_id);
  header.PutI64(index.num_clips);
  header.PutU32(static_cast<uint32_t>(index.objects.size()));
  header.PutU32(static_cast<uint32_t>(index.actions.size()));
  out.Append(kTagHeader, header);
  for (const bool is_action : {false, true}) {
    for (const TypeIndex& t : is_action ? index.actions : index.objects) {
      ckpt::Payload p;
      p.PutU32(static_cast<uint32_t>(t.type_id));
      p.PutString(t.type_name);
      p.PutIntervalSet(t.sequences);
      p.PutU32(static_cast<uint32_t>(t.table.num_rows()));
      for (ClipIndex c = 0; c < t.table.num_rows(); ++c) {
        p.PutF64(t.table.PeekScore(c));
      }
      out.Append(is_action ? kTagAction : kTagObject, p);
    }
  }
  return out.blob();
}

StatusOr<TypeIndex> DecodeType(std::string_view payload, int64_t num_clips) {
  ckpt::PayloadReader in(payload);
  TypeIndex t;
  uint32_t type_id = 0;
  VAQ_RETURN_IF_ERROR(in.GetU32(&type_id));
  t.type_id = static_cast<int32_t>(type_id);
  VAQ_RETURN_IF_ERROR(in.GetString(&t.type_name));
  VAQ_RETURN_IF_ERROR(in.GetIntervalSet(&t.sequences));
  if (!t.sequences.empty() && (t.sequences.intervals().front().lo < 0 ||
                               t.sequences.intervals().back().hi >=
                                   num_clips)) {
    return Status::Corruption("type '" + t.type_name +
                              "' has a sequence outside the video's " +
                              std::to_string(num_clips) + " clips");
  }
  uint32_t rows = 0;
  VAQ_RETURN_IF_ERROR(in.GetCount(&rows, sizeof(double)));
  if (rows != num_clips) {
    return Status::Corruption("type '" + t.type_name + "' has " +
                              std::to_string(rows) + " scores for " +
                              std::to_string(num_clips) + " clips");
  }
  std::vector<ScoreRow> column(rows);
  for (uint32_t c = 0; c < rows; ++c) {
    column[c].clip = c;
    VAQ_RETURN_IF_ERROR(in.GetF64(&column[c].score));
    // NaN has no rank: it would break the sort in ScoreTable::Build.
    if (std::isnan(column[c].score)) {
      return Status::Corruption("type '" + t.type_name + "' has a NaN score");
    }
  }
  VAQ_ASSIGN_OR_RETURN(t.table, ScoreTable::Build(std::move(column)));
  return t;
}

StatusOr<VideoIndex> DecodeVideo(std::string_view blob) {
  VAQ_ASSIGN_OR_RETURN(const std::vector<ckpt::Record> records,
                       ckpt::ParseBlob(blob));
  if (records.empty() || records[0].tag != kTagHeader) {
    return Status::Corruption("missing header record");
  }
  VideoIndex index;
  uint32_t num_objects = 0;
  uint32_t num_actions = 0;
  ckpt::PayloadReader header(records[0].payload);
  VAQ_RETURN_IF_ERROR(header.GetI64(&index.video_id));
  VAQ_RETURN_IF_ERROR(header.GetI64(&index.num_clips));
  VAQ_RETURN_IF_ERROR(header.GetU32(&num_objects));
  VAQ_RETURN_IF_ERROR(header.GetU32(&num_actions));
  if (index.num_clips < 0) return Status::Corruption("negative clip count");
  for (size_t i = 1; i < records.size(); ++i) {
    const ckpt::Record& record = records[i];
    // Unknown tags: skipped (checksum already verified by ParseBlob).
    if (record.tag != kTagObject && record.tag != kTagAction) continue;
    VAQ_ASSIGN_OR_RETURN(TypeIndex t,
                         DecodeType(record.payload, index.num_clips));
    (record.tag == kTagAction ? index.actions : index.objects)
        .push_back(std::move(t));
  }
  if (index.objects.size() != num_objects ||
      index.actions.size() != num_actions) {
    return Status::Corruption(
        "header promises " + std::to_string(num_objects) + " object and " +
        std::to_string(num_actions) + " action tables, found " +
        std::to_string(index.objects.size()) + " and " +
        std::to_string(index.actions.size()));
  }
  return index;
}

}  // namespace

const TypeIndex* VideoIndex::FindObject(int32_t type_id) const {
  for (const TypeIndex& t : objects) {
    if (t.type_id == type_id) return &t;
  }
  return nullptr;
}

const TypeIndex* VideoIndex::FindAction(int32_t type_id) const {
  for (const TypeIndex& t : actions) {
    if (t.type_id == type_id) return &t;
  }
  return nullptr;
}

const TypeIndex* VideoIndex::FindObjectByName(const std::string& name) const {
  for (const TypeIndex& t : objects) {
    if (t.type_name == name) return &t;
  }
  return nullptr;
}

const TypeIndex* VideoIndex::FindActionByName(const std::string& name) const {
  for (const TypeIndex& t : actions) {
    if (t.type_name == name) return &t;
  }
  return nullptr;
}

AccessCounter VideoIndex::TotalAccesses() const {
  AccessCounter total;
  for (const TypeIndex& t : objects) total += t.table.counter();
  for (const TypeIndex& t : actions) total += t.table.counter();
  return total;
}

void VideoIndex::ResetAccessCounters() const {
  for (const TypeIndex& t : objects) t.table.ResetCounter();
  for (const TypeIndex& t : actions) t.table.ResetCounter();
}

Catalog::Catalog(std::string root) : store_(std::move(root)) {}

Status Catalog::Save(const std::string& name, const VideoIndex& index) const {
  if (!ckpt::ValidEntryName(name)) return BadName(name);
  return store_.Put(name, EncodeVideo(index));
}

StatusOr<VideoIndex> Catalog::Load(const std::string& name) const {
  if (!ckpt::ValidEntryName(name)) return BadName(name);
  VAQ_ASSIGN_OR_RETURN(const std::string blob, store_.Get(name));
  StatusOr<VideoIndex> index = DecodeVideo(blob);
  if (!index.ok()) {
    return Status(index.status().code(), "video '" + name + "' in " +
                                             root() + ": " +
                                             index.status().message());
  }
  return index;
}

Status Catalog::Delete(const std::string& name) const {
  if (!ckpt::ValidEntryName(name)) return BadName(name);
  if (!Contains(name)) {
    return Status::NotFound("no ingested video named '" + name + "'");
  }
  return store_.Delete(name);
}

bool Catalog::Contains(const std::string& name) const {
  if (!ckpt::ValidEntryName(name)) return false;
  const std::vector<std::string> names = ListVideos();
  return std::binary_search(names.begin(), names.end(), name);
}

std::vector<std::string> Catalog::ListVideos() const {
  StatusOr<std::vector<std::string>> names = store_.List();
  return names.ok() ? std::move(names).value() : std::vector<std::string>();
}

}  // namespace storage
}  // namespace vaq
