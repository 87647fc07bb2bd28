#include "storage/catalog.h"
#include "storage/score_table.h"

#include <cstdint>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "ckpt/serializer.h"
#include "ckpt/store.h"
#include "common/rng.h"

namespace vaq {
namespace storage {
namespace {

namespace fs = std::filesystem;

ScoreTable MakeTable(std::vector<double> scores) {
  std::vector<ScoreTable::Row> rows;
  for (size_t i = 0; i < scores.size(); ++i) {
    rows.push_back({static_cast<ClipIndex>(i), scores[i]});
  }
  auto table = ScoreTable::Build(std::move(rows));
  EXPECT_TRUE(table.ok());
  return std::move(table).value();
}

std::string TempDir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TEST(ScoreTableTest, BuildValidatesRows) {
  EXPECT_FALSE(ScoreTable::Build({{0, 1.0}, {0, 2.0}}).ok());  // Duplicate.
  EXPECT_FALSE(ScoreTable::Build({{1, 1.0}}).ok());  // Gap (id 0 missing).
  EXPECT_FALSE(ScoreTable::Build({{-1, 1.0}}).ok());
  EXPECT_TRUE(ScoreTable::Build({}).ok());
}

TEST(ScoreTableTest, SortedOrderIsDescendingWithStableTies) {
  const ScoreTable table = MakeTable({3.0, 9.0, 3.0, 7.0});
  EXPECT_EQ(table.SortedRow(0).clip, 1);
  EXPECT_EQ(table.SortedRow(1).clip, 3);
  EXPECT_EQ(table.SortedRow(2).clip, 0);  // Tie: lower clip id first.
  EXPECT_EQ(table.SortedRow(3).clip, 2);
  EXPECT_EQ(table.ReverseRow(0).clip, 2);
  EXPECT_EQ(table.ReverseRow(3).clip, 1);
}

TEST(ScoreTableTest, AccessCounting) {
  const ScoreTable table = MakeTable({1, 2, 3, 4, 5});
  table.SortedRow(0);
  table.SortedRow(1);
  table.ReverseRow(0);
  table.RandomScore(3);
  std::vector<double> out;
  table.RangeScores(1, 3, &out);
  EXPECT_EQ(table.counter().sorted_accesses, 2);
  EXPECT_EQ(table.counter().reverse_accesses, 1);
  EXPECT_EQ(table.counter().random_accesses, 1);
  EXPECT_EQ(table.counter().range_scans, 1);
  EXPECT_EQ(table.counter().range_rows, 3);
  EXPECT_EQ(table.counter().seeks(), 2);
  EXPECT_EQ(table.counter().sequential_rows(), 6);
  table.ResetCounter();
  EXPECT_EQ(table.counter().total(), 0);
  // Peek is never counted.
  table.PeekScore(0);
  EXPECT_EQ(table.counter().total(), 0);
}

TEST(ScoreTableTest, RangeScoresReturnsByClipOrder) {
  const ScoreTable table = MakeTable({5, 1, 4, 2});
  std::vector<double> out;
  table.RangeScores(0, 3, &out);
  EXPECT_EQ(out, (std::vector<double>{5, 1, 4, 2}));
}

TEST(ScoreTableTest, FileRoundTrip) {
  // Tables persist only inside a catalog entry: save a one-table video,
  // load it back, and compare every score and the rebuilt rank order.
  Rng rng(5);
  std::vector<double> scores;
  for (int i = 0; i < 500; ++i) scores.push_back(rng.UniformDouble(0, 100));
  VideoIndex index;
  index.num_clips = static_cast<int64_t>(scores.size());
  TypeIndex type;
  type.type_name = "t";
  type.table = MakeTable(scores);
  index.objects.push_back(std::move(type));
  const Catalog catalog(TempDir("vaq_tbl_test"));
  ASSERT_TRUE(catalog.Save("t", index).ok());
  auto loaded = catalog.Load("t");
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->objects.size(), 1u);
  const ScoreTable& want = index.objects[0].table;
  const ScoreTable& got = loaded->objects[0].table;
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (int64_t i = 0; i < want.num_rows(); ++i) {
    EXPECT_EQ(got.PeekScore(i), want.PeekScore(i));
    EXPECT_EQ(got.SortedRow(i).clip, want.SortedRow(i).clip);
  }
}

VideoIndex MakeIndex() {
  VideoIndex index;
  index.video_id = 42;
  index.num_clips = 6;
  TypeIndex car;
  car.type_id = 0;
  car.type_name = "car";
  car.table = MakeTable({1, 6, 3, 2, 9, 0});
  car.sequences = IntervalSet::FromIntervals({Interval(1, 2), Interval(4, 4)});
  index.objects.push_back(std::move(car));
  TypeIndex jump;
  jump.type_id = 0;
  jump.type_name = "jumping";
  jump.table = MakeTable({0, 5, 5, 1, 8, 2});
  jump.sequences = IntervalSet::FromIntervals({Interval(1, 4)});
  index.actions.push_back(std::move(jump));
  return index;
}

TEST(VideoIndexTest, Lookups) {
  const VideoIndex index = MakeIndex();
  EXPECT_NE(index.FindObject(0), nullptr);
  EXPECT_EQ(index.FindObject(9), nullptr);
  EXPECT_NE(index.FindObjectByName("car"), nullptr);
  EXPECT_EQ(index.FindObjectByName("boat"), nullptr);
  EXPECT_NE(index.FindActionByName("jumping"), nullptr);
}

TEST(VideoIndexTest, AccessAggregation) {
  const VideoIndex index = MakeIndex();
  index.objects[0].table.RandomScore(0);
  index.actions[0].table.SortedRow(0);
  const AccessCounter total = index.TotalAccesses();
  EXPECT_EQ(total.random_accesses, 1);
  EXPECT_EQ(total.sorted_accesses, 1);
  index.ResetAccessCounters();
  EXPECT_EQ(index.TotalAccesses().total(), 0);
}

TEST(CatalogTest, SaveLoadRoundTrip) {
  const std::string root = TempDir("vaq_catalog_test");
  const Catalog catalog(root);
  ASSERT_TRUE(catalog.Save("movie_a", MakeIndex()).ok());
  // One regular file per video, holding one ckpt blob.
  int files = 0;
  for (const auto& entry : fs::directory_iterator(root)) {
    EXPECT_TRUE(entry.is_regular_file()) << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 1);
  EXPECT_TRUE(ckpt::ParseBlob(ckpt::DirStore(root).Get("movie_a").value())
                  .ok());
  EXPECT_TRUE(catalog.Contains("movie_a"));
  EXPECT_FALSE(catalog.Contains("movie_b"));
  auto loaded = catalog.Load("movie_a");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->video_id, 42);
  EXPECT_EQ(loaded->num_clips, 6);
  ASSERT_EQ(loaded->objects.size(), 1u);
  EXPECT_EQ(loaded->objects[0].type_name, "car");
  EXPECT_EQ(loaded->objects[0].sequences,
            IntervalSet::FromIntervals({Interval(1, 2), Interval(4, 4)}));
  ASSERT_EQ(loaded->actions.size(), 1u);
  EXPECT_EQ(loaded->actions[0].type_name, "jumping");
  EXPECT_EQ(loaded->actions[0].sequences,
            IntervalSet::FromIntervals({Interval(1, 4)}));
  // Every score, and the rank order rebuilt from the clip-order column
  // (ties included), match the saved tables.
  const VideoIndex saved = MakeIndex();
  for (const bool is_action : {false, true}) {
    const ScoreTable& want =
        (is_action ? saved.actions : saved.objects)[0].table;
    const ScoreTable& got =
        (is_action ? loaded->actions : loaded->objects)[0].table;
    ASSERT_EQ(got.num_rows(), want.num_rows());
    for (int64_t i = 0; i < want.num_rows(); ++i) {
      EXPECT_EQ(got.PeekScore(i), want.PeekScore(i));
      EXPECT_EQ(got.SortedRow(i).clip, want.SortedRow(i).clip);
    }
  }
  EXPECT_EQ(catalog.ListVideos(), std::vector<std::string>{"movie_a"});
}

TEST(CatalogTest, DeleteRemovesVideoAndFiles) {
  const Catalog catalog(TempDir("vaq_catalog_delete"));
  ASSERT_TRUE(catalog.Save("a", MakeIndex()).ok());
  ASSERT_TRUE(catalog.Save("b", MakeIndex()).ok());
  ASSERT_TRUE(catalog.Delete("a").ok());
  EXPECT_FALSE(catalog.Contains("a"));
  EXPECT_TRUE(catalog.Contains("b"));
  EXPECT_EQ(catalog.ListVideos(), std::vector<std::string>{"b"});
  EXPECT_EQ(catalog.Delete("a").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, LoadMissingVideoFails) {
  const Catalog catalog(TempDir("vaq_catalog_empty"));
  EXPECT_EQ(catalog.Load("nope").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(catalog.ListVideos().empty());
}

TEST(CatalogTest, RejectsNamesOutsideTheRoot) {
  const fs::path root = TempDir("vaq_catalog_names");
  const Catalog catalog((root / "cat").string());
  fs::create_directories(root / "escaped");
  for (const std::string name : {"../escaped", "a/b", "..", ".", ""}) {
    EXPECT_EQ(catalog.Save(name, MakeIndex()).code(),
              StatusCode::kInvalidArgument)
        << name;
    EXPECT_EQ(catalog.Load(name).status().code(),
              StatusCode::kInvalidArgument)
        << name;
    EXPECT_EQ(catalog.Delete(name).code(), StatusCode::kInvalidArgument)
        << name;
    EXPECT_FALSE(catalog.Contains(name)) << name;
  }
  // Nothing was written beside the catalog, and nothing was deleted.
  EXPECT_TRUE(fs::is_empty(root / "escaped"));
  EXPECT_FALSE(fs::exists(root / "cat"));
}

TEST(CatalogTest, EveryBitFlipAndTruncationFailsToLoad) {
  // A deterministic sweep over one saved entry: each single-bit flip and
  // each proper prefix must load as an error, never as a (silently
  // different) index and never as an abort.
  const std::string root = TempDir("vaq_catalog_sweep");
  const Catalog catalog(root);
  ckpt::DirStore store(root);
  ASSERT_TRUE(catalog.Save("v", MakeIndex()).ok());
  const std::string good = store.Get("v").value();
  ASSERT_TRUE(catalog.Load("v").ok());
  for (size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      ASSERT_TRUE(store.Put("v", bad).ok());
      EXPECT_FALSE(catalog.Load("v").ok()) << "byte " << byte << " bit "
                                           << bit;
    }
  }
  for (size_t size = 0; size < good.size(); ++size) {
    ASSERT_TRUE(store.Put("v", good.substr(0, size)).ok());
    EXPECT_FALSE(catalog.Load("v").ok()) << "prefix of " << size << " bytes";
  }
}

// Hand-built, checksum-valid entries that break the catalog's own rules.
// Tags mirror the catalog's records: 1 header, 2 object, 3 action.
std::string Entry(int64_t num_clips, uint32_t objects,
                  const ckpt::Payload& object) {
  ckpt::Serializer out;
  ckpt::Payload header;
  header.PutI64(/*video_id=*/7);
  header.PutI64(num_clips);
  header.PutU32(objects);
  header.PutU32(/*actions=*/0);
  out.Append(/*tag=*/1, header);
  out.Append(/*tag=*/2, object);
  return out.blob();
}

ckpt::Payload ObjectRecord(const IntervalSet& sequences, uint32_t rows,
                           int scores_written) {
  ckpt::Payload p;
  p.PutU32(/*type_id=*/0);
  p.PutString("car");
  p.PutIntervalSet(sequences);
  p.PutU32(rows);
  for (int c = 0; c < scores_written; ++c) p.PutF64(c);
  return p;
}

TEST(CatalogTest, ChecksumValidButInconsistentEntriesAreCorruption) {
  const std::string root = TempDir("vaq_catalog_crafted");
  const Catalog catalog(root);
  ckpt::DirStore store(root);
  const IntervalSet inside = IntervalSet::FromIntervals({Interval(1, 2)});
  // The builders themselves produce a loadable entry.
  ASSERT_TRUE(store.Put("v", Entry(6, 1, ObjectRecord(inside, 6, 6))).ok());
  ASSERT_TRUE(catalog.Load("v").ok());
  const struct {
    const char* what;
    std::string blob;
  } cases[] = {
      {"short score column", Entry(6, 1, ObjectRecord(inside, 5, 5))},
      {"sequence ending at num_clips",
       Entry(6, 1,
             ObjectRecord(IntervalSet::FromIntervals({Interval(4, 6)}), 6,
                          6))},
      {"score count larger than its record",
       Entry(6, 1, ObjectRecord(inside, 0xFFFFFFFFu, 6))},
      {"type count larger than the entry",
       Entry(6, 0xFFFFFFFFu, ObjectRecord(inside, 6, 6))},
  };
  for (const auto& c : cases) {
    ASSERT_TRUE(store.Put("v", c.blob).ok());
    EXPECT_EQ(catalog.Load("v").status().code(), StatusCode::kCorruption)
        << c.what;
  }
}

}  // namespace
}  // namespace storage
}  // namespace vaq
