// Unit tests for src/store: collection filtering, unique indexes, updates,
// persistence round-trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common/json.h"
#include "store/collection.h"
#include "store/database.h"
#include "store/snapshot.h"

namespace hbold::store {
namespace {

Json Obj(const std::string& text) {
  auto r = Json::Parse(text);
  EXPECT_TRUE(r.ok()) << text << " " << r.status();
  return r.ok() ? *r : Json::MakeObject();
}

class CollectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(c_.Insert(Obj(R"({"name":"a","n":1,"tags":["x"]})")).ok());
    ASSERT_TRUE(c_.Insert(Obj(R"({"name":"b","n":2})")).ok());
    ASSERT_TRUE(c_.Insert(Obj(R"({"name":"c","n":3,"meta":{"k":9}})")).ok());
  }
  Collection c_{"test"};
};

TEST_F(CollectionTest, InsertAssignsSequentialIds) {
  EXPECT_EQ(c_.size(), 3u);
  auto doc = c_.FindOne(Obj(R"({"name":"b"})"));
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->GetInt("_id"), 2);
}

TEST_F(CollectionTest, InsertRejectsNonObject) {
  EXPECT_FALSE(c_.Insert(Json(5)).ok());
}

TEST_F(CollectionTest, FindByEquality) {
  EXPECT_EQ(c_.Find(Obj(R"({"name":"a"})")).size(), 1u);
  EXPECT_EQ(c_.Find(Obj(R"({})")).size(), 3u);
  EXPECT_EQ(c_.Find(Obj(R"({"name":"zzz"})")).size(), 0u);
}

TEST_F(CollectionTest, FindByComparisonOperators) {
  EXPECT_EQ(c_.Find(Obj(R"({"n":{"$gt":1}})")).size(), 2u);
  EXPECT_EQ(c_.Find(Obj(R"({"n":{"$gte":1}})")).size(), 3u);
  EXPECT_EQ(c_.Find(Obj(R"({"n":{"$lt":3}})")).size(), 2u);
  EXPECT_EQ(c_.Find(Obj(R"({"n":{"$lte":1}})")).size(), 1u);
  EXPECT_EQ(c_.Find(Obj(R"({"n":{"$ne":2}})")).size(), 2u);
  EXPECT_EQ(c_.Find(Obj(R"({"n":{"$gt":1,"$lt":3}})")).size(), 1u);
}

TEST_F(CollectionTest, FindByInAndExists) {
  EXPECT_EQ(c_.Find(Obj(R"({"name":{"$in":["a","c"]}})")).size(), 2u);
  EXPECT_EQ(c_.Find(Obj(R"({"meta":{"$exists":true}})")).size(), 1u);
  EXPECT_EQ(c_.Find(Obj(R"({"meta":{"$exists":false}})")).size(), 2u);
}

TEST_F(CollectionTest, DottedPathsDescend) {
  EXPECT_EQ(c_.Find(Obj(R"({"meta.k":9})")).size(), 1u);
  EXPECT_EQ(c_.Find(Obj(R"({"meta.k":{"$gt":5}})")).size(), 1u);
  EXPECT_EQ(c_.Find(Obj(R"({"meta.missing":1})")).size(), 0u);
}

TEST_F(CollectionTest, MultipleKeysAreAnded) {
  EXPECT_EQ(c_.Find(Obj(R"({"name":"a","n":1})")).size(), 1u);
  EXPECT_EQ(c_.Find(Obj(R"({"name":"a","n":2})")).size(), 0u);
}

TEST_F(CollectionTest, FindByIdAndCount) {
  EXPECT_NE(c_.FindById(1), nullptr);
  EXPECT_EQ(c_.FindById(99), nullptr);
  EXPECT_EQ(c_.CountMatching(Obj(R"({"n":{"$gte":2}})")), 2u);
}

TEST_F(CollectionTest, UpdateMergesFields) {
  auto n = c_.Update(Obj(R"({"name":"a"})"), Obj(R"({"n":10,"fresh":true})"));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  auto doc = c_.FindOne(Obj(R"({"name":"a"})"));
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->GetInt("n"), 10);
  EXPECT_TRUE(doc->GetBool("fresh"));
  EXPECT_EQ(doc->GetInt("_id"), 1);  // _id preserved
}

TEST_F(CollectionTest, UpdateManyReturnsCount) {
  auto n = c_.Update(Obj(R"({"n":{"$gt":0}})"), Obj(R"({"seen":1})"));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
}

TEST_F(CollectionTest, RemoveByFilter) {
  EXPECT_EQ(c_.Remove(Obj(R"({"n":{"$lt":3}})")), 2u);
  EXPECT_EQ(c_.size(), 1u);
  EXPECT_EQ(c_.Remove(Obj(R"({})")), 1u);
  EXPECT_EQ(c_.size(), 0u);
}

TEST_F(CollectionTest, UniqueIndexBlocksDuplicates) {
  ASSERT_TRUE(c_.CreateUniqueIndex("name").ok());
  auto r = c_.Insert(Obj(R"({"name":"a"})"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  // Missing field is allowed.
  EXPECT_TRUE(c_.Insert(Obj(R"({"other":1})")).ok());
}

TEST_F(CollectionTest, UniqueIndexBlocksUpdateCollisions) {
  ASSERT_TRUE(c_.CreateUniqueIndex("name").ok());
  auto r = c_.Update(Obj(R"({"name":"b"})"), Obj(R"({"name":"a"})"));
  EXPECT_FALSE(r.ok());
  // Atomicity: b unchanged.
  EXPECT_NE(c_.FindOne(Obj(R"({"name":"b"})")), nullptr);
}

TEST_F(CollectionTest, UniqueIndexRejectsExistingDuplicates) {
  ASSERT_TRUE(c_.Insert(Obj(R"({"name":"a"})")).ok());  // duplicate of row 1
  EXPECT_FALSE(c_.CreateUniqueIndex("name").ok());
}

TEST_F(CollectionTest, JsonlRoundTrip) {
  std::string dump = c_.DumpJsonl();
  Collection other("copy");
  ASSERT_TRUE(other.LoadJsonl(dump).ok());
  EXPECT_EQ(other.size(), 3u);
  EXPECT_EQ(other.DumpJsonl(), dump);
  // next_id resumes after the max loaded id.
  auto id = other.Insert(Obj(R"({"name":"d"})"));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 4);
}

TEST_F(CollectionTest, LoadJsonlRejectsMissingId) {
  Collection other("bad");
  EXPECT_FALSE(other.LoadJsonl("{\"name\":\"x\"}\n").ok());
  EXPECT_FALSE(other.LoadJsonl("not json\n").ok());
}

TEST(CollectionMatchTest, StaticMatcher) {
  Json doc = Obj(R"({"a":1,"s":"hello"})");
  EXPECT_TRUE(Collection::Matches(doc, Obj(R"({"a":1})")));
  EXPECT_FALSE(Collection::Matches(doc, Obj(R"({"a":2})")));
  EXPECT_TRUE(Collection::Matches(doc, Obj(R"({"s":{"$gte":"hello"}})")));
  EXPECT_FALSE(Collection::Matches(doc, Obj(R"({"a":{"$bogus":1}})")));
}

// ---------------------------------------------------------------- Database

TEST(DatabaseTest, GetCollectionCreatesOnce) {
  Database db;
  Collection* a = db.GetCollection("x");
  Collection* b = db.GetCollection("x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(db.CollectionNames(), (std::vector<std::string>{"x"}));
  EXPECT_EQ(db.FindCollection("missing"), nullptr);
}

TEST(DatabaseTest, DropCollection) {
  Database db;
  db.GetCollection("x");
  EXPECT_TRUE(db.DropCollection("x"));
  EXPECT_FALSE(db.DropCollection("x"));
}

TEST(DatabaseTest, SaveAndLoadDirectory) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hbold_store_test";
  fs::remove_all(dir);

  Database db;
  Collection* summaries = db.GetCollection("summaries");
  ASSERT_TRUE(summaries->Insert(Obj(R"({"endpoint":"http://a","classes":3})"))
                  .ok());
  ASSERT_TRUE(summaries->Insert(Obj(R"({"endpoint":"http://b","classes":7})"))
                  .ok());
  db.GetCollection("clusters");
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());

  Database loaded;
  ASSERT_TRUE(loaded.LoadFromDirectory(dir.string()).ok());
  const Collection* got = loaded.FindCollection("summaries");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->size(), 2u);
  EXPECT_EQ(got->FindOne(Obj(R"({"endpoint":"http://b"})"))->GetInt("classes"),
            7);
  fs::remove_all(dir);
}

TEST(DatabaseTest, LoadMissingDirectoryFails) {
  Database db;
  EXPECT_FALSE(db.LoadFromDirectory("/nonexistent/hbold").ok());
}

TEST(DatabaseTest, SaveLeavesNoTempFiles) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hbold_store_tmp_test";
  fs::remove_all(dir);

  Database db;
  ASSERT_TRUE(db.GetCollection("summaries")
                  ->Insert(Obj(R"({"endpoint":"http://a"})"))
                  .ok());
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());
  // Saving again over existing files must atomically replace them.
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());

  size_t snapshots = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "temp file left behind: " << entry.path();
    if (entry.path().extension() == ".hbsnap") ++snapshots;
  }
  EXPECT_EQ(snapshots, 1u);

  // A stale .tmp from a crashed save must not be loaded as a collection —
  // and the loader cleans it up so later saves start from a tidy directory.
  std::ofstream(dir / "summaries.hbsnap.tmp") << "garbage\n";
  Database loaded;
  ASSERT_TRUE(loaded.LoadFromDirectory(dir.string()).ok());
  EXPECT_EQ(loaded.CollectionNames(), (std::vector<std::string>{"summaries"}));
  EXPECT_FALSE(fs::exists(dir / "summaries.hbsnap.tmp"));
  fs::remove_all(dir);
}

TEST(DatabaseTest, BinarySnapshotRoundTripIsByteIdentical) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hbold_store_snap_test";
  fs::remove_all(dir);

  Database db;
  Collection* summaries = db.GetCollection("summaries");
  ASSERT_TRUE(
      summaries->Insert(Obj(R"({"endpoint":"http://a","classes":3})")).ok());
  ASSERT_TRUE(
      summaries->Insert(Obj(R"({"endpoint":"http://b","classes":7})")).ok());
  ASSERT_TRUE(db.GetCollection("clusters")
                  ->Insert(Obj(R"({"cluster":1,"members":["a","b"]})"))
                  .ok());
  db.GetCollection("empty");
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());

  Database loaded;
  ASSERT_TRUE(loaded.LoadFromDirectory(dir.string()).ok());
  EXPECT_EQ(loaded.CanonicalDump(), db.CanonicalDump());
  fs::remove_all(dir);
}

TEST(DatabaseTest, CollectionNamesRoundTripExactly) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hbold_store_names_test";
  fs::remove_all(dir);

  // Names that defeat filename-based persistence: an embedded ".jsonl"
  // suffix, case-only differences (collide on case-insensitive
  // filesystems), spaces, and a literal '%' (collides with the escape
  // character unless the codec round-trips it).
  const std::vector<std::string> names = {
      "data.jsonl", "Summaries", "summaries", "with space", "pct%20name"};
  Database db;
  for (const std::string& name : names) {
    ASSERT_TRUE(db.GetCollection(name)
                    ->Insert(Obj(R"({"owner":")" + name + R"("})"))
                    .ok());
  }
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());

  Database loaded;
  ASSERT_TRUE(loaded.LoadFromDirectory(dir.string()).ok());
  std::vector<std::string> expected = names;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(loaded.CollectionNames(), expected);
  for (const std::string& name : names) {
    const Collection* c = loaded.FindCollection(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->FindOne(Obj("{}"))->GetString("owner"), name);
  }
  EXPECT_EQ(loaded.CanonicalDump(), db.CanonicalDump());
  fs::remove_all(dir);
}

TEST(DatabaseTest, SnapshotFilenameCodecAvoidsCaseCollisions) {
  // Distinct names must encode to filenames that stay distinct even under
  // case folding: uppercase bytes are escaped, and the escape hex is
  // always uppercase while literal letters are always lowercase.
  const std::string a = EncodeSnapshotFilename("Summaries");
  const std::string b = EncodeSnapshotFilename("summaries");
  auto lower = [](std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    return s;
  };
  EXPECT_NE(lower(a), lower(b));
  for (const std::string& name :
       {std::string("data.jsonl"), std::string("A/B c%"),
        std::string("\xff\x00x", 3)}) {
    auto decoded = DecodeSnapshotFilename(EncodeSnapshotFilename(name));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, name);
  }
}

TEST(DatabaseTest, LegacyJsonlMigratesToBinary) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hbold_store_migrate_test";
  fs::remove_all(dir);

  Database legacy;
  ASSERT_TRUE(legacy.GetCollection("summaries")
                  ->Insert(Obj(R"({"endpoint":"http://a"})"))
                  .ok());
  ASSERT_TRUE(
      legacy.SaveToDirectory(dir.string(), Database::SnapshotFormat::kJsonl)
          .ok());
  ASSERT_TRUE(fs::exists(dir / "summaries.jsonl"));

  // A database saved as JSONL loads transparently...
  Database db;
  ASSERT_TRUE(db.LoadFromDirectory(dir.string()).ok());
  EXPECT_EQ(db.CanonicalDump(), legacy.CanonicalDump());

  // ...and its next (binary) save supersedes the legacy file: loading a
  // directory holding both formats must not double-apply or prefer the
  // stale JSONL.
  ASSERT_TRUE(db.GetCollection("summaries")
                  ->Insert(Obj(R"({"endpoint":"http://b"})"))
                  .ok());
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());
  ASSERT_TRUE(fs::exists(dir / "summaries.jsonl"));  // stale, still present

  Database reloaded;
  ASSERT_TRUE(reloaded.LoadFromDirectory(dir.string()).ok());
  EXPECT_EQ(reloaded.CanonicalDump(), db.CanonicalDump());
  EXPECT_EQ(reloaded.FindCollection("summaries")->size(), 2u);
  fs::remove_all(dir);
}

TEST(DatabaseTest, CorruptedSnapshotIsRejectedWithCleanStatus) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hbold_store_corrupt_test";
  fs::remove_all(dir);

  Database db;
  ASSERT_TRUE(db.GetCollection("summaries")
                  ->Insert(Obj(R"({"endpoint":"http://a"})"))
                  .ok());
  ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());
  fs::path snap = dir / "summaries.hbsnap";
  ASSERT_TRUE(fs::exists(snap));

  // Truncated header.
  {
    std::ofstream(snap, std::ios::trunc | std::ios::binary) << "HBSN";
    Database loaded;
    Status st = loaded.LoadFromDirectory(dir.string());
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kParseError);
  }
  // Bad magic, full-size file.
  {
    std::string bogus(64, 'x');
    std::ofstream(snap, std::ios::trunc | std::ios::binary) << bogus;
    Database loaded;
    Status st = loaded.LoadFromDirectory(dir.string());
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kParseError);
  }
  // Single flipped payload byte: checksum must catch it.
  {
    ASSERT_TRUE(db.SaveToDirectory(dir.string()).ok());
    std::string bytes;
    {
      std::ifstream in(snap, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      bytes = buf.str();
    }
    ASSERT_GT(bytes.size(), 40u);
    bytes[bytes.size() - 1] ^= 0x01;
    std::ofstream(snap, std::ios::trunc | std::ios::binary) << bytes;
    Database loaded;
    Status st = loaded.LoadFromDirectory(dir.string());
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kParseError);
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------------- Concurrency

TEST(CollectionSnapshotTest, SnapshotIsImmutableView) {
  Collection c("snap");
  ASSERT_TRUE(c.Insert(Obj(R"({"k":1})")).ok());
  ASSERT_TRUE(c.Insert(Obj(R"({"k":2})")).ok());
  std::vector<DocumentPtr> snapshot = c.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0]->GetInt("k"), 1);
  c.Remove(Obj(R"({"k":1})"));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(snapshot.size(), 2u);  // unaffected by the removal
}

// Reads hand out the stored documents themselves; writes swap in new ones,
// so every handle keeps the content it was read with.
TEST(CollectionSnapshotTest, HandlesKeepTheirContentAcrossWrites) {
  Collection c("handles");
  c.CreateIndex("k");
  for (const char* doc : {R"({"k":1,"v":"one"})", R"({"k":2,"v":"two"})",
                          R"({"k":3,"v":"three"})"}) {
    ASSERT_TRUE(c.Insert(Obj(doc)).ok());
  }
  const Json k1 = Obj(R"({"k":1})");
  const Json k2 = Obj(R"({"k":2})");
  DocumentPtr one = c.FindOne(k1);
  std::vector<DocumentPtr> twos = c.Find(k2);
  DocumentPtr three = c.FindById(3);
  std::vector<DocumentPtr> all = c.Snapshot();
  ASSERT_NE(one, nullptr);
  ASSERT_EQ(twos.size(), 1u);
  ASSERT_NE(three, nullptr);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(one, all[0]);  // shared, not copied
  EXPECT_EQ(three, c.FindOne(Obj(R"({"k":3})")));
  const std::string before = c.DumpJsonl();

  ASSERT_TRUE(c.Replace(k1, Obj(R"({"k":1,"v":"uno"})")).ok());
  ASSERT_TRUE(c.Update(k2, Obj(R"({"v":"dos"})")).ok());
  EXPECT_EQ(c.Remove(Obj(R"({"k":3})")), 1u);

  EXPECT_EQ(one->GetString("v"), "one");
  EXPECT_EQ(one->GetInt("_id"), 1);
  EXPECT_EQ(twos[0]->GetString("v"), "two");
  EXPECT_EQ(three->GetString("v"), "three");
  std::string held;
  for (const DocumentPtr& doc : all) held += doc->Dump() + "\n";
  EXPECT_EQ(held, before);

  DocumentPtr uno = c.FindOne(k1);
  ASSERT_NE(uno, nullptr);
  EXPECT_EQ(uno->GetString("v"), "uno");
  DocumentPtr dos = c.FindOne(k2);
  ASSERT_NE(dos, nullptr);
  EXPECT_NE(dos, twos[0]);
  EXPECT_EQ(dos->GetString("v"), "dos");
  EXPECT_EQ(dos->GetInt("_id"), 2);

  ASSERT_TRUE(c.LoadJsonl("{\"_id\":9,\"k\":1,\"v\":\"nueve\"}\n").ok());
  EXPECT_EQ(uno->GetString("v"), "uno");
  EXPECT_EQ(dos->GetString("v"), "dos");
  ASSERT_NE(c.FindOne(k1), nullptr);
  EXPECT_EQ(c.FindOne(k1)->GetString("v"), "nueve");
  EXPECT_EQ(c.FindOne(k2), nullptr);
}

TEST(ConcurrencyTest, ParallelWritersToDistinctCollections) {
  Database db;
  constexpr int kWriters = 8;
  constexpr int kDocsPerWriter = 200;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&db, w] {
      Collection* c = db.GetCollection("c" + std::to_string(w));
      for (int i = 0; i < kDocsPerWriter; ++i) {
        Json doc = Json::MakeObject();
        doc.Set("writer", w);
        doc.Set("seq", i);
        ASSERT_TRUE(c->Insert(std::move(doc)).ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(db.CollectionNames().size(), static_cast<size_t>(kWriters));
  for (int w = 0; w < kWriters; ++w) {
    const Collection* c = db.FindCollection("c" + std::to_string(w));
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->size(), static_cast<size_t>(kDocsPerWriter));
  }
}

TEST(ConcurrencyTest, ParallelWritersToSameCollection) {
  Database db;
  Collection* c = db.GetCollection("shared");
  constexpr int kWriters = 4;
  constexpr int kDocsPerWriter = 250;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([c, w] {
      for (int i = 0; i < kDocsPerWriter; ++i) {
        Json doc = Json::MakeObject();
        doc.Set("writer", w);
        ASSERT_TRUE(c->Insert(std::move(doc)).ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(c->size(), static_cast<size_t>(kWriters * kDocsPerWriter));
  // Every document got a distinct id.
  std::set<int64_t> ids;
  for (const DocumentPtr& doc : c->Snapshot()) {
    ids.insert(doc->GetInt("_id"));
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kWriters * kDocsPerWriter));
}

TEST(ConcurrencyTest, ReadersDuringWrites) {
  Database db;
  Collection* c = db.GetCollection("mixed");
  c->CreateIndex("k");
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};

  std::thread writer([c, &stop] {
    for (int i = 0; i < 500; ++i) {
      Json doc = Json::MakeObject();
      doc.Set("k", i % 10);
      doc.Set("seq", i);
      ASSERT_TRUE(c->Insert(std::move(doc)).ok());
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([c, &stop, &read_errors] {
      Json filter = Json::MakeObject();
      filter.Set("k", 3);
      while (!stop) {
        // Every doc an indexed read returns must actually match.
        for (const DocumentPtr& doc : c->Find(filter)) {
          if (doc->GetInt("k") != 3) ++read_errors;
        }
        c->Snapshot();
        c->CountMatching(filter);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(read_errors.load(), 0);
  EXPECT_EQ(c->size(), 500u);
  Json filter = Json::MakeObject();
  filter.Set("k", 3);
  EXPECT_EQ(c->CountMatching(filter), 50u);
}

// Readers keep handles across a writer's Replace/Update of the very same
// documents: a held document never changes under its reader.
TEST(ConcurrencyTest, HandlesStableWhileWritersSwapDocuments) {
  Collection c("swap");
  c.CreateIndex("k");
  constexpr int kKeys = 4;
  for (int k = 0; k < kKeys; ++k) {
    Json doc = Json::MakeObject();
    doc.Set("k", k);
    doc.Set("gen", 0);
    ASSERT_TRUE(c.Insert(std::move(doc)).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread writer([&c, &stop] {
    for (int gen = 1; gen <= 400; ++gen) {
      Json filter = Json::MakeObject();
      filter.Set("k", gen % kKeys);
      Json doc = Json::MakeObject();
      doc.Set("gen", gen);
      if (gen % 2 == 0) {
        doc.Set("k", gen % kKeys);
        ASSERT_TRUE(c.Replace(filter, std::move(doc)).ok());
      } else {
        ASSERT_TRUE(c.Update(filter, doc).ok());
      }
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&c, &stop, &errors, r] {
      Json filter = Json::MakeObject();
      filter.Set("k", r);
      DocumentPtr held;
      std::string held_dump;
      while (!stop) {
        if (held != nullptr && held->Dump() != held_dump) ++errors;
        held = c.FindOne(filter);
        if (held == nullptr || held->GetInt("k") != r) {
          ++errors;
          continue;
        }
        held_dump = held->Dump();
        for (const DocumentPtr& doc : c.Snapshot()) {
          if (doc->GetInt("gen") < 0) ++errors;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(c.size(), static_cast<size_t>(kKeys));
}

}  // namespace
}  // namespace hbold::store
