#include "dw/recovery.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "dw/etl.h"
#include "integration/last_minute_sales.h"

namespace dwqa {
namespace dw {
namespace {

namespace stdfs = std::filesystem;

WalFact MakeFact(int day, const std::string& city = "Barcelona",
                 double value = 8.0) {
  char date[11];
  std::snprintf(date, sizeof(date), "2004-01-%02d", day);
  WalFact fact;
  fact.fact_name = "Weather";
  fact.attribute = "temperature";
  fact.value = value;
  fact.unit = "\xC2\xBA\x43";
  fact.date_iso = date;
  fact.location = city;
  fact.url = "http://weather.example/" + city;
  fact.confidence = 0.9;
  fact.dedup_key = "temperature|" + city + "|" + date;
  fact.record.role_paths = {
      {city}, DateMemberPath(Date::FromIsoString(date).ValueOrDie()),
      {fact.url}};
  fact.record.measures = {Value(value)};
  return fact;
}

size_t WeatherRows(const Warehouse& wh) {
  return wh.FactRowCount("Weather").ValueOrDie();
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::path(::testing::TempDir()) / (std::string("dwqa_recovery_test.") + std::to_string(::getpid()));
    stdfs::remove_all(dir_);
    options_.bootstrap_schema = integration::LastMinuteSales::MakeSchema();
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }

  /// Feeds `facts` as one committed question the way the live feed does:
  /// WAL append then ETL load per fact, then the commit and its sync.
  /// `commits_` tracks the progress a snapshot of `wh` carries.
  void Feed(WalWriter* wal, Warehouse* wh,
            const std::vector<WalFact>& facts) {
    EtlLoader loader(wh);
    WalCommit commit;
    commit.question = "question-" + std::to_string(++questions_);
    for (const WalFact& fact : facts) {
      Lsn lsn = wal->AppendFact(fact).ValueOrDie();
      if (commit.first_lsn == 0) commit.first_lsn = lsn;
      commit.last_lsn = lsn;
      ASSERT_TRUE(loader.LoadRecord(fact.fact_name, fact.record).ok());
      commits_.fed_keys.insert(fact.dedup_key);
    }
    ASSERT_TRUE(wal->AppendCommit(commit).ok());
    ASSERT_TRUE(wal->Sync().ok());
    commits_.questions.insert(commit.question);
  }

  stdfs::path dir_;
  RecoveryOptions options_;
  CommitSet commits_;
  int questions_ = 0;
};

TEST_F(RecoveryTest, ColdStartReplaysTheFullWal) {
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    Warehouse wh =
        integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
    Feed(wal.get(), &wh, {MakeFact(1), MakeFact(2), MakeFact(3)});
  }
  RecoveredWarehouse recovered =
      Recovery::Open(Dir(), options_).ValueOrDie();
  EXPECT_EQ(recovered.snapshot_lsn, 0u);
  EXPECT_EQ(recovered.last_lsn, 4u);  // Three facts and their commit.
  EXPECT_EQ(recovered.replayed, 3u);
  EXPECT_EQ(WeatherRows(recovered.warehouse), 3u);
  EXPECT_TRUE(recovered.quarantine.empty());
  EXPECT_EQ(recovered.commits, commits_);

  FsckReport fsck = Fsck(Dir()).ValueOrDie();
  EXPECT_TRUE(fsck.clean())
      << (fsck.issues.empty() ? "" : fsck.issues[0]);
  EXPECT_EQ(fsck.wal_last_lsn, 4u);
  EXPECT_EQ(fsck.wal_records, 4u);
}

TEST_F(RecoveryTest, SnapshotPlusTailReplay) {
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    Warehouse wh =
        integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
    Feed(wal.get(), &wh, {MakeFact(1), MakeFact(2)});
    ASSERT_TRUE(
        SnapshotWriter::Write(Dir(), wh, commits_, wal->last_lsn()).ok());
    Feed(wal.get(), &wh, {MakeFact(3), MakeFact(4)});
  }
  RecoveredWarehouse recovered =
      Recovery::Open(Dir(), options_).ValueOrDie();
  EXPECT_EQ(recovered.snapshot_lsn, 3u);
  EXPECT_EQ(recovered.last_lsn, 6u);
  // Facts 1–2 are covered by the snapshot (idempotent replay skips them);
  // only the tail is applied.
  EXPECT_EQ(recovered.replayed, 2u);
  EXPECT_EQ(recovered.skipped_covered, 2u);
  EXPECT_EQ(WeatherRows(recovered.warehouse), 4u);
  EXPECT_EQ(recovered.commits, commits_);
  EXPECT_EQ(ReadCommitSet(Dir()).ValueOrDie(), commits_);
  EXPECT_TRUE(Fsck(Dir()).ValueOrDie().clean());
}

TEST_F(RecoveryTest, RecoveryIsIdempotent) {
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    Warehouse wh =
        integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
    Feed(wal.get(), &wh, {MakeFact(1), MakeFact(2)});
  }
  auto first = Recovery::Open(Dir(), options_).ValueOrDie();
  auto second = Recovery::Open(Dir(), options_).ValueOrDie();
  EXPECT_EQ(WeatherRows(first.warehouse), WeatherRows(second.warehouse));
  EXPECT_EQ(first.last_lsn, second.last_lsn);
}

TEST_F(RecoveryTest, TornTailIsTruncatedAndReported) {
  std::string segment;
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    Warehouse wh =
        integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
    Feed(wal.get(), &wh, {MakeFact(1), MakeFact(2)});
    segment = wal->current_segment_path();
  }
  {
    std::ofstream out(segment, std::ios::app | std::ios::binary);
    out << "rec\t4\t500\tdeadbeef\nonly half a payl";
  }
  RecoveredWarehouse recovered =
      Recovery::Open(Dir(), options_).ValueOrDie();
  EXPECT_GT(recovered.torn_bytes_truncated, 0u);
  EXPECT_EQ(recovered.last_lsn, 3u);
  EXPECT_EQ(WeatherRows(recovered.warehouse), 2u);
  ASSERT_FALSE(recovered.issues.empty());
  // After truncation the directory fsck-checks clean again.
  EXPECT_TRUE(Fsck(Dir()).ValueOrDie().clean());
}

TEST_F(RecoveryTest, BitFlippedRecordIsQuarantinedNotLoaded) {
  std::string segment;
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    Warehouse wh =
        integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
    Feed(wal.get(), &wh,
         {MakeFact(1), MakeFact(2, "Madrid"), MakeFact(3)});
    segment = wal->current_segment_path();
  }
  // Flip a byte inside the second record's payload (its city name).
  std::ifstream in(segment, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  size_t at = content.find("Madrid");
  ASSERT_NE(at, std::string::npos);
  content[at] ^= 0x04;
  {
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out << content;
  }
  RecoveredWarehouse recovered =
      Recovery::Open(Dir(), options_).ValueOrDie();
  EXPECT_EQ(recovered.corrupt_records, 1u);
  EXPECT_EQ(recovered.replayed, 2u);
  EXPECT_EQ(WeatherRows(recovered.warehouse), 2u);
  ASSERT_EQ(recovered.quarantine.size(), 1u);
  EXPECT_EQ(recovered.quarantine.records()[0].reason, "WalCorrupt");
  // Fsck flags the corruption (it is detection, not silent repair).
  EXPECT_FALSE(Fsck(Dir()).ValueOrDie().clean());
}

TEST_F(RecoveryTest, ValidatorRejectsLandInQuarantine) {
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    Warehouse wh =
        integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
    Feed(wal.get(), &wh,
         {MakeFact(1, "Barcelona", 8.0), MakeFact(2, "Madrid", 888.0)});
  }
  options_.validate = [](const WalFact& fact) -> std::string {
    return fact.value > 60.0 ? "ValueOutOfRange" : "";
  };
  RecoveredWarehouse recovered =
      Recovery::Open(Dir(), options_).ValueOrDie();
  EXPECT_EQ(recovered.replayed, 1u);
  EXPECT_EQ(WeatherRows(recovered.warehouse), 1u);
  ASSERT_EQ(recovered.quarantine.size(), 1u);
  EXPECT_EQ(recovered.quarantine.records()[0].reason, "ValueOutOfRange");
  EXPECT_EQ(recovered.quarantine.records()[0].location, "Madrid");
}

TEST_F(RecoveryTest, CorruptNewestSnapshotFallsBackToOlder) {
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    Warehouse wh =
        integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
    Feed(wal.get(), &wh, {MakeFact(1), MakeFact(2)});
    ASSERT_TRUE(SnapshotWriter::Write(Dir(), wh, commits_, 3).ok());
    Feed(wal.get(), &wh, {MakeFact(3), MakeFact(4)});
    ASSERT_TRUE(SnapshotWriter::Write(Dir(), wh, commits_, 6).ok());
  }
  // Rot the newest snapshot; the older one plus the retained WAL tail
  // must still reconstruct the full state.
  {
    std::ofstream out(Dir() + "/snap-00000000000000000006/schema.txt",
                      std::ios::trunc);
    out << "rotten";
  }
  RecoveredWarehouse recovered =
      Recovery::Open(Dir(), options_).ValueOrDie();
  EXPECT_EQ(recovered.snapshot_lsn, 3u);
  EXPECT_EQ(recovered.replayed, 2u);
  EXPECT_EQ(WeatherRows(recovered.warehouse), 4u);
  EXPECT_EQ(recovered.commits, commits_);
  bool mentioned_fallback = false;
  for (const std::string& issue : recovered.issues) {
    if (issue.find("falling back") != std::string::npos) {
      mentioned_fallback = true;
    }
  }
  EXPECT_TRUE(mentioned_fallback);
}

TEST_F(RecoveryTest, UncommittedTmpSnapshotIsSwept) {
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    Warehouse wh =
        integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
    Feed(wal.get(), &wh, {MakeFact(1)});
  }
  stdfs::create_directories(dir_ / "snap-00000000000000000005.tmp");
  RecoveredWarehouse recovered =
      Recovery::Open(Dir(), options_).ValueOrDie();
  EXPECT_FALSE(stdfs::exists(dir_ / "snap-00000000000000000005.tmp"));
  EXPECT_EQ(WeatherRows(recovered.warehouse), 1u);
}

TEST_F(RecoveryTest, NoSnapshotAndNoBootstrapFails) {
  RecoveryOptions bare;
  auto recovered = Recovery::Open(Dir(), bare);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsNotFound());
}

TEST_F(RecoveryTest, FsckFlagsUnrecoverableGapAfterLostSegments) {
  {
    WalOptions options;
    options.segment_bytes = 1;  // One record per segment.
    auto wal = WalWriter::Open(Dir(), options).ValueOrDie();
    Warehouse wh =
        integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
    Feed(wal.get(), &wh, {MakeFact(1), MakeFact(2), MakeFact(3)});
    // Dropping segments without a covering snapshot loses records 1–2.
    ASSERT_GT(wal->DropSegmentsCoveredBy(2).ValueOrDie(), 0u);
  }
  FsckReport fsck = Fsck(Dir()).ValueOrDie();
  ASSERT_FALSE(fsck.clean());
  bool flagged = false;
  for (const std::string& issue : fsck.issues) {
    if (issue.find("unrecoverable") != std::string::npos) flagged = true;
  }
  EXPECT_TRUE(flagged);
}

TEST_F(RecoveryTest, EtlRejectedReplayGoesToQuarantine) {
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    WalFact broken = MakeFact(1);
    broken.record.measures.clear();  // Weather needs one measure.
    ASSERT_TRUE(wal->AppendFact(broken).ok());
    ASSERT_TRUE(wal->AppendFact(MakeFact(2)).ok());
    // The commit covers both: only replay finds the broken one unloadable.
    ASSERT_TRUE(wal->AppendCommit({"q", 1, 2, {}}).ok());
  }
  RecoveredWarehouse recovered =
      Recovery::Open(Dir(), options_).ValueOrDie();
  EXPECT_EQ(recovered.replayed, 1u);
  EXPECT_EQ(WeatherRows(recovered.warehouse), 1u);
  ASSERT_EQ(recovered.quarantine.size(), 1u);
  EXPECT_EQ(recovered.quarantine.records()[0].reason, "EtlRejected");
}

/// Facts no commit covers are never replayed — neither a crashed tail nor
/// facts a later commit merely follows.
TEST_F(RecoveryTest, UncommittedFactsAreNeverReplayed) {
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    Warehouse wh =
        integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
    Feed(wal.get(), &wh, {MakeFact(1)});
    ASSERT_TRUE(wal->AppendFact(MakeFact(2)).ok());  // Never committed.
    Feed(wal.get(), &wh, {MakeFact(3)});
    ASSERT_TRUE(wal->AppendFact(MakeFact(4)).ok());  // Crashed tail.
  }
  RecoveredWarehouse recovered =
      Recovery::Open(Dir(), options_).ValueOrDie();
  EXPECT_EQ(recovered.replayed, 2u);
  EXPECT_EQ(recovered.skipped_uncommitted, 2u);
  EXPECT_EQ(WeatherRows(recovered.warehouse), 2u);
  EXPECT_EQ(recovered.commits, commits_);
  EXPECT_TRUE(Fsck(Dir()).ValueOrDie().clean());
}

/// A commit's refused LSNs are the facts the live ETL did not load: they
/// stay out of the recovered warehouse and of the fed keys, and their
/// question stays re-askable.
TEST_F(RecoveryTest, RefusedFactsAreNotReplayed) {
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    ASSERT_TRUE(wal->AppendFact(MakeFact(1)).ok());
    ASSERT_TRUE(wal->AppendFact(MakeFact(2)).ok());
    ASSERT_TRUE(wal->AppendCommit({"q", 1, 2, {2}}).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  RecoveredWarehouse recovered =
      Recovery::Open(Dir(), options_).ValueOrDie();
  EXPECT_EQ(recovered.replayed, 1u);
  EXPECT_EQ(recovered.skipped_uncommitted, 1u);
  EXPECT_TRUE(recovered.commits.questions.empty());
  EXPECT_EQ(recovered.commits.fed_keys,
            std::set<std::string>{MakeFact(1).dedup_key});
}

/// A commit record that does not parse, or claims LSNs at or past its
/// own, commits nothing — and fsck says so.
TEST_F(RecoveryTest, MalformedCommitCommitsNothing) {
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    ASSERT_TRUE(wal->AppendFact(MakeFact(1)).ok());
    ASSERT_TRUE(wal->Append("commit\tone\ttwo\n").ok());
    ASSERT_TRUE(wal->AppendFact(MakeFact(2)).ok());
    ASSERT_TRUE(wal->AppendCommit({"ahead", 3, 9, {}}).ok());
  }
  RecoveredWarehouse recovered =
      Recovery::Open(Dir(), options_).ValueOrDie();
  EXPECT_EQ(WeatherRows(recovered.warehouse), 0u);
  EXPECT_EQ(recovered.skipped_uncommitted, 2u);
  EXPECT_TRUE(recovered.commits.questions.empty());
  EXPECT_EQ(Fsck(Dir()).ValueOrDie().issues.size(), 2u);
}

}  // namespace
}  // namespace dw
}  // namespace dwqa
