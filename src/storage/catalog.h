// Persistent video repository metadata.
//
// The ingestion phase (§4.2) runs once per video and materializes, for
// every object and action type the deployed models support: (a) the clip
// score table and (b) the type's individual sequences P_{o_i} / P_{a_j}.
// `VideoIndex` is the in-memory form; `Catalog` persists indexes under a
// root directory, one file per video, so that ad-hoc queries at any later
// time never re-run model inference.
//
// Each file is one checksummed, versioned ckpt blob (ckpt/serializer.h),
// written by temp+rename through ckpt::DirStore:
//
//   header record: video_id:i64 num_clips:i64 objects:u32 actions:u32
//   object/action record (one per type, objects then actions):
//       type_id:u32 name:string sequences:IntervalSet
//       scores:u32 count, then one f64 per clip in clip order
//
// Loading bounds every count by the bytes left in its record and rejects
// a score column whose length is not num_clips, a NaN score, or a
// sequence outside [0, num_clips), with kCorruption. Video names are ckpt entry names
// ([A-Za-z0-9._-]), so no name can reach outside the root.
#ifndef VAQ_STORAGE_CATALOG_H_
#define VAQ_STORAGE_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/store.h"
#include "common/interval.h"
#include "common/status.h"
#include "storage/score_table.h"

namespace vaq {
namespace storage {

// Ingested metadata of one type (object or action) in one video.
struct TypeIndex {
  int32_t type_id = -1;
  std::string type_name;
  ScoreTable table;
  // Individual sequences: maximal runs of clips where the type's indicator
  // fired (§4.2), at clip granularity.
  IntervalSet sequences;
};

// All ingested metadata of one video.
struct VideoIndex {
  int64_t video_id = 0;
  int64_t num_clips = 0;
  std::vector<TypeIndex> objects;
  std::vector<TypeIndex> actions;

  const TypeIndex* FindObject(int32_t type_id) const;
  const TypeIndex* FindAction(int32_t type_id) const;
  const TypeIndex* FindObjectByName(const std::string& name) const;
  const TypeIndex* FindActionByName(const std::string& name) const;

  // Sum of access counters across all tables.
  AccessCounter TotalAccesses() const;
  void ResetAccessCounters() const;
};

// A directory of persisted VideoIndexes keyed by name. Save, Load and
// Delete reject a name that is not a valid ckpt entry name with
// kInvalidArgument; Contains is false for it.
class Catalog {
 public:
  // `root` is created on first Save if missing.
  explicit Catalog(std::string root);

  Status Save(const std::string& name, const VideoIndex& index) const;
  StatusOr<VideoIndex> Load(const std::string& name) const;
  // Removes a video's file (§4.2: videos can be added or deleted from the
  // repository by manipulating the per-video metadata).
  Status Delete(const std::string& name) const;
  bool Contains(const std::string& name) const;
  std::vector<std::string> ListVideos() const;

  const std::string& root() const { return store_.dir(); }

 private:
  // DirStore keeps no state beyond its directory, so the const methods
  // may write through it.
  mutable ckpt::DirStore store_;
};

}  // namespace storage
}  // namespace vaq

#endif  // VAQ_STORAGE_CATALOG_H_
