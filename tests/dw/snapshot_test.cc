#include "dw/snapshot.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "dw/persistence.h"
#include "integration/last_minute_sales.h"
#include "tests/dw/text_mutation.h"
#include "web/weather_model.h"

namespace dwqa {
namespace dw {
namespace {

namespace stdfs = std::filesystem;

Warehouse PopulatedWarehouse() {
  Warehouse wh = integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
  web::WeatherModel weather(42);
  EXPECT_TRUE(integration::LastMinuteSales::GenerateSales(
                  &wh, weather, Date(2004, 1, 1), 5)
                  .ok());
  return wh;
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::path(::testing::TempDir()) / (std::string("dwqa_snapshot_test.") + std::to_string(::getpid()));
    stdfs::remove_all(dir_);
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }

  stdfs::path dir_;
};

TEST(ManifestSerdeTest, RoundTrip) {
  SnapshotManifest manifest;
  manifest.lsn = 42;
  manifest.entries = {{"schema.txt", 120, "cbf43926"},
                      {"fact_Weather.csv", 0, "00000000"}};
  auto back = ManifestSerde::FromText(ManifestSerde::ToText(manifest));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->lsn, 42u);
  ASSERT_EQ(back->entries.size(), 2u);
  EXPECT_EQ(back->entries[0].file, "schema.txt");
  EXPECT_EQ(back->entries[0].size, 120u);
  EXPECT_EQ(back->entries[0].crc_hex, "cbf43926");
}

TEST(ManifestSerdeTest, AdversarialInputRejectedWithLineNumbers) {
  const char* cases[] = {
      "",
      "not-a-manifest\t1\n",
      "dwqa-snapshot\t9\n",                       // Unknown version.
      "dwqa-snapshot\t1\n",                       // Missing lsn.
      "dwqa-snapshot\t1\nlsn\tmany\n",            // Non-numeric lsn.
      "dwqa-snapshot\t1\nlsn\t1\nlsn\t2\n",       // Duplicate lsn.
      "dwqa-snapshot\t1\nlsn\t1\nfile\ta\t3\n",   // Short file line.
      "dwqa-snapshot\t1\nlsn\t1\nfile\ta\t3\tzz\n",  // Bad CRC width.
      // CRCs Crc32Hex cannot write (found by the fuzz property below).
      "dwqa-snapshot\t1\nlsn\t1\nfile\ta\t3\t0axb2c3d\n",
      "dwqa-snapshot\t1\nlsn\t1\nfile\ta\t3\tde\rdbeef\n",
      "dwqa-snapshot\t1\nlsn\t1\nfile\ta\t3\tCBF43926\n",
      "dwqa-snapshot\t1\nlsn\t1\nzap\tx\n",       // Unknown tag.
      "dwqa-snapshot\t1\nlsn\t99999999999999999999\n",  // u64 overflow.
  };
  for (const char* text : cases) {
    auto parsed = ManifestSerde::FromText(text);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find("line"), std::string::npos);
  }
}

void ExpectSameManifest(const SnapshotManifest& a, const SnapshotManifest& b) {
  EXPECT_EQ(a.lsn, b.lsn);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].file, b.entries[i].file) << "entry " << i;
    EXPECT_EQ(a.entries[i].size, b.entries[i].size) << "entry " << i;
    EXPECT_EQ(a.entries[i].crc_hex, b.entries[i].crc_hex) << "entry " << i;
  }
}

// Parser fuzz: a mutated MANIFEST either fails with a typed Corruption
// error or parses to a manifest that survives ToText → FromText unchanged
// and whose CRCs have the form Crc32Hex writes.
TEST(ManifestFuzzProperty, MutatedManifestsFailTypedOrRoundTrip) {
  SnapshotManifest manifest;
  manifest.lsn = 1209;
  manifest.entries = {{"commits.txt", 97, "0a1b2c3d"},
                      {"dim_City.csv", 410, "deadbeef"},
                      {"fact_Weather.csv", 0, "00000000"},
                      {"schema.txt", 1520, "cbf43926"}};
  FuzzMutations(ManifestSerde::ToText(manifest), 17,
                [](const std::string& text) {
                  auto parsed = ManifestSerde::FromText(text);
                  if (!parsed.ok()) {
                    EXPECT_TRUE(parsed.status().IsCorruption())
                        << parsed.status().ToString();
                    return;
                  }
                  for (const ManifestEntry& entry : parsed->entries) {
                    EXPECT_EQ(entry.crc_hex.find_first_not_of(
                                  "0123456789abcdef"),
                              std::string::npos)
                        << entry.crc_hex;
                  }
                  auto again =
                      ManifestSerde::FromText(ManifestSerde::ToText(*parsed));
                  ASSERT_TRUE(again.ok()) << again.status().ToString();
                  ExpectSameManifest(*again, *parsed);
                });
}

/// The snapshot syncs its build directory once, after every file in it,
/// commits by renaming that directory, then syncs the parent directory so
/// the rename itself is durable.
TEST_F(SnapshotTest, CommitRenameIsFollowedByADirectorySync) {
  FaultFs recorder(RealFilesystem());
  auto path = SnapshotWriter::Write(Dir(), PopulatedWarehouse(), {}, 7,
                                    &recorder);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  const std::vector<std::string>& ops = recorder.op_log();
  const std::string tmp = *path + ".tmp";
  ASSERT_GE(ops.size(), 3u);
  EXPECT_EQ(ops[ops.size() - 3], "syncdir:" + tmp);
  EXPECT_EQ(ops[ops.size() - 2], "rename:" + tmp);
  EXPECT_EQ(ops.back(), "syncdir:" + Dir());
  EXPECT_EQ(std::count(ops.begin(), ops.end(), "syncdir:" + tmp), 1);
  // Every file written is synced before that directory sync.
  std::set<std::string> written;
  std::set<std::string> synced;
  for (auto op = ops.begin(); op != ops.end() - 3; ++op) {
    if (op->rfind("write:", 0) == 0) written.insert(op->substr(6));
    if (op->rfind("sync:", 0) == 0) synced.insert(op->substr(5));
  }
  EXPECT_FALSE(written.empty());
  EXPECT_EQ(synced, written);
}

TEST_F(SnapshotTest, WriteCommitVerifyRoundTrip) {
  Warehouse wh = PopulatedWarehouse();
  std::string path = SnapshotWriter::Write(Dir(), wh, {}, 7).ValueOrDie();
  EXPECT_NE(path.find("snap-00000000000000000007"), std::string::npos);
  // Committed: no tmp dir left, manifest verifies, warehouse loads back.
  EXPECT_FALSE(stdfs::exists(path + ".tmp"));
  SnapshotManifest manifest = VerifySnapshot(path).ValueOrDie();
  EXPECT_EQ(manifest.lsn, 7u);
  EXPECT_FALSE(manifest.entries.empty());
  Warehouse back = WarehousePersistence::Load(path).ValueOrDie();
  EXPECT_EQ(back.FactRowCount("LastMinuteSales").ValueOrDie(),
            wh.FactRowCount("LastMinuteSales").ValueOrDie());

  std::vector<std::string> tmp_leftovers;
  auto snapshots = ListSnapshots(Dir(), nullptr, &tmp_leftovers).ValueOrDie();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].lsn, 7u);
  EXPECT_TRUE(tmp_leftovers.empty());
}

/// The snapshot compacts the feed's commit set into a MANIFEST-covered
/// file: it reads back intact, and rot in it fails verification.
TEST_F(SnapshotTest, SnapshotCarriesItsCommitSet) {
  Warehouse wh = PopulatedWarehouse();
  CommitSet commits;
  commits.questions = {"What is the temperature in Barcelona?"};
  commits.fed_keys = {"temperature|barcelona|2004-01-31"};
  std::string path = SnapshotWriter::Write(Dir(), wh, commits, 7).ValueOrDie();
  SnapshotManifest manifest = VerifySnapshot(path).ValueOrDie();
  EXPECT_EQ(manifest.commits, commits);
  bool covered = false;
  for (const ManifestEntry& entry : manifest.entries) {
    if (entry.file == "commits.txt") covered = true;
  }
  EXPECT_TRUE(covered);

  std::string text = RealFilesystem()->ReadFile(path + "/commits.txt")
                         .ValueOrDie();
  text[text.size() / 2] ^= 0x01;
  ASSERT_TRUE(RealFilesystem()->WriteFile(path + "/commits.txt", text).ok());
  EXPECT_FALSE(VerifySnapshot(path).ok());
}

TEST_F(SnapshotTest, RewriteAtTheSameLsnIsIdempotent) {
  Warehouse wh = PopulatedWarehouse();
  std::string first = SnapshotWriter::Write(Dir(), wh, {}, 7).ValueOrDie();
  std::string second = SnapshotWriter::Write(Dir(), wh, {}, 7).ValueOrDie();
  EXPECT_EQ(first, second);
  EXPECT_EQ(ListSnapshots(Dir()).ValueOrDie().size(), 1u);
}

TEST_F(SnapshotTest, SnapshotsListOldestFirst) {
  Warehouse wh = PopulatedWarehouse();
  ASSERT_TRUE(SnapshotWriter::Write(Dir(), wh, {}, 30).ok());
  ASSERT_TRUE(SnapshotWriter::Write(Dir(), wh, {}, 4).ok());
  ASSERT_TRUE(SnapshotWriter::Write(Dir(), wh, {}, 100).ok());
  auto snapshots = ListSnapshots(Dir()).ValueOrDie();
  ASSERT_EQ(snapshots.size(), 3u);
  EXPECT_EQ(snapshots[0].lsn, 4u);
  EXPECT_EQ(snapshots[1].lsn, 30u);
  EXPECT_EQ(snapshots[2].lsn, 100u);
}

TEST_F(SnapshotTest, StaleTmpDirIsReportedAndSweptByRewrite) {
  Warehouse wh = PopulatedWarehouse();
  // A crash mid-build leaves snap-<lsn>.tmp behind.
  stdfs::create_directories(dir_ / "snap-00000000000000000009.tmp");
  std::vector<std::string> tmp_leftovers;
  ASSERT_TRUE(ListSnapshots(Dir(), nullptr, &tmp_leftovers).ok());
  ASSERT_EQ(tmp_leftovers.size(), 1u);
  // A retried Write at the same LSN sweeps the stale build dir.
  ASSERT_TRUE(SnapshotWriter::Write(Dir(), wh, {}, 9).ok());
  tmp_leftovers.clear();
  ASSERT_TRUE(ListSnapshots(Dir(), nullptr, &tmp_leftovers).ok());
  EXPECT_TRUE(tmp_leftovers.empty());
}

TEST_F(SnapshotTest, BitRotInADataFileFailsVerification) {
  Warehouse wh = PopulatedWarehouse();
  std::string path = SnapshotWriter::Write(Dir(), wh, {}, 7).ValueOrDie();
  // Flip one byte of a covered file, keeping its size.
  std::string target = path + "/schema.txt";
  std::ifstream in(target, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  ASSERT_FALSE(content.empty());
  content[content.size() / 2] ^= 0x01;
  {
    std::ofstream out(target, std::ios::binary | std::ios::trunc);
    out << content;
  }
  Status st = VerifySnapshot(path).status();
  ASSERT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("CRC mismatch"), std::string::npos);
  EXPECT_NE(st.message().find("schema.txt"), std::string::npos);
}

TEST_F(SnapshotTest, TruncatedDataFileFailsVerificationBySize) {
  Warehouse wh = PopulatedWarehouse();
  std::string path = SnapshotWriter::Write(Dir(), wh, {}, 7).ValueOrDie();
  { std::ofstream out(path + "/schema.txt", std::ios::trunc); }
  Status st = VerifySnapshot(path).status();
  ASSERT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("size"), std::string::npos);
}

TEST_F(SnapshotTest, MissingManifestFailsVerification) {
  Warehouse wh = PopulatedWarehouse();
  std::string path = SnapshotWriter::Write(Dir(), wh, {}, 7).ValueOrDie();
  stdfs::remove(path + "/MANIFEST");
  Status st = VerifySnapshot(path).status();
  ASSERT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("MANIFEST"), std::string::npos);
}

// Satellite 1: WarehousePersistence::Save writes every file atomically —
// after any successful Save, the directory holds complete files and no
// .tmp leftovers, and a re-Save over an existing directory is clean.
TEST_F(SnapshotTest, PersistenceSaveIsAtomicAndRepeatable) {
  Warehouse wh = PopulatedWarehouse();
  ASSERT_TRUE(WarehousePersistence::Save(wh, Dir()).ok());
  ASSERT_TRUE(WarehousePersistence::Save(wh, Dir()).ok());  // Overwrite.
  for (const auto& entry : stdfs::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "leftover temp file: " << entry.path();
  }
  Warehouse back = WarehousePersistence::Load(Dir()).ValueOrDie();
  EXPECT_EQ(back.FactRowCount("LastMinuteSales").ValueOrDie(),
            wh.FactRowCount("LastMinuteSales").ValueOrDie());
}

}  // namespace
}  // namespace dw
}  // namespace dwqa
