#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/io.h"
#include "dw/etl.h"
#include "dw/recovery.h"
#include "integration/last_minute_sales.h"

namespace dwqa {
namespace dw {
namespace {

namespace stdfs = std::filesystem;

/// The committed-state oracle: every (city, date) of a group whose commit
/// *returned OK* — the commit record appended and synced — must be present
/// after recovery, in workload order.
struct WorkloadResult {
  std::vector<std::string> committed_keys;  ///< Acknowledged, in order.
  std::set<std::string> committed_groups;   ///< Their commit questions.
  size_t ops = 0;                           ///< Mutating fs ops attempted.
  std::vector<std::string> op_log;
};

WalFact MakeFact(int day, const std::string& city) {
  char date[11];
  std::snprintf(date, sizeof(date), "2004-01-%02d", day);
  WalFact fact;
  fact.fact_name = "Weather";
  fact.attribute = "temperature";
  fact.value = 5.0 + day;
  fact.unit = "\xC2\xBA\x43";
  fact.date_iso = date;
  fact.location = city;
  fact.url = "http://weather.example/" + city;
  fact.confidence = 0.9;
  fact.dedup_key = "temperature|" + city + "|" + date;
  fact.record.role_paths = {
      {city}, DateMemberPath(Date::FromIsoString(date).ValueOrDie()),
      {fact.url}};
  fact.record.measures = {Value(fact.value)};
  return fact;
}

std::string FactKey(const WalFact& fact) {
  return fact.location + "|" + fact.date_iso;
}

/// The recovered-state projection comparable against the oracle.
std::multiset<std::string> WarehouseKeys(const Warehouse& wh) {
  const Table* table = wh.FactTable("Weather").ValueOrDie();
  size_t loc = table->ColumnIndex("fk_location").ValueOrDie();
  size_t day = table->ColumnIndex("fk_day").ValueOrDie();
  std::multiset<std::string> keys;
  for (size_t r = 0; r < table->row_count(); ++r) {
    std::string city =
        wh.MemberLevelValue("City", MemberId(table->Get(r, loc).as_int()),
                            "City")
            .ValueOrDie();
    std::string date =
        wh.MemberLevelValue("Date", MemberId(table->Get(r, day).as_int()),
                            "Date")
            .ValueOrDie();
    keys.insert(city + "|" + date);
  }
  return keys;
}

/// Facts are fed in groups of two, each closed by a commit record and one
/// sync — the shape of one Step-5 question.
constexpr int kGroupSize = 2;

std::string GroupName(int group) { return "group-" + std::to_string(group); }

/// Feeds group `group` (days 2*group-1 .. 2*group): WAL append then ETL
/// load per fact, then the commit and its sync. Only a group whose commit
/// returned OK enters `result` and `commits`.
bool FeedGroup(int group, WalWriter* wal, EtlLoader* loader,
               CommitSet* commits, WorkloadResult* result) {
  const std::vector<std::string> cities = {"Barcelona", "Madrid"};
  WalCommit commit;
  commit.question = GroupName(group);
  std::vector<std::string> keys;
  for (int day = kGroupSize * (group - 1) + 1; day <= kGroupSize * group;
       ++day) {
    WalFact fact = MakeFact(day, cities[size_t(day) % cities.size()]);
    auto appended = wal->AppendFact(fact);
    if (!appended.ok()) return false;
    if (commit.first_lsn == 0) commit.first_lsn = *appended;
    commit.last_lsn = *appended;
    if (!loader->LoadRecord(fact.fact_name, fact.record).ok()) return false;
    keys.push_back(FactKey(fact));
    commits->fed_keys.insert(fact.dedup_key);
  }
  if (!wal->AppendCommit(commit).ok() || !wal->Sync().ok()) return false;
  // Acknowledged: the group is committed whatever happens next.
  result->committed_keys.insert(result->committed_keys.end(), keys.begin(),
                                keys.end());
  result->committed_groups.insert(commit.question);
  commits->questions.insert(commit.question);
  return true;
}

/// One full durability workload against `fs`: open the WAL, feed two
/// committed groups, snapshot mid-way (dropping covered segments), feed
/// two more across a segment rotation. Exercises every crash-point family:
/// fact append, commit append, commit sync, segment rotate, snapshot temp
/// write, manifest write, rename, segment drop.
WorkloadResult RunWorkload(const std::string& dir, FaultFs* fs) {
  WorkloadResult result;
  auto record_ops = [&]() {
    result.ops = fs->op_count();
    result.op_log = fs->op_log();
    return result;
  };
  WalOptions options;
  options.segment_bytes = 256;  // Small enough to force a rotation.
  auto wal = WalWriter::Open(dir, options, fs);
  if (!wal.ok()) return record_ops();
  Warehouse wh = integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
  EtlLoader loader(&wh);
  CommitSet commits;
  for (int group = 1; group <= 2; ++group) {
    if (!FeedGroup(group, wal->get(), &loader, &commits, &result)) {
      return record_ops();
    }
  }
  // Mid-run flush: snapshot + WAL garbage collection.
  if (SnapshotWriter::Write(dir, wh, commits, (*wal)->last_lsn(), fs).ok()) {
    (void)(*wal)->DropSegmentsCoveredBy((*wal)->last_lsn());
  }
  for (int group = 3; group <= 4; ++group) {
    if (!FeedGroup(group, wal->get(), &loader, &commits, &result)) {
      return record_ops();
    }
  }
  return record_ops();
}

class CrashSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::path(::testing::TempDir()) / (std::string("dwqa_crash_sweep.") + std::to_string(::getpid()));
    stdfs::remove_all(dir_);
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }

  stdfs::path dir_;
};

/// The tentpole assertion: for EVERY mutating-fs-operation index and for
/// both kStop and kTornWrite crash modes, recovery after the crash yields
/// exactly the committed groups of the workload — never a lost
/// acknowledged group, never part of a group, and never a phantom beyond
/// the one whole group whose commit record landed before a crashed sync.
TEST_F(CrashSweepTest, EveryCrashPointRecoversTheCommittedState) {
  // Recorder pass: enumerate the ops of a crash-free run.
  FaultFs recorder(RealFilesystem());
  WorkloadResult full = RunWorkload(Dir(), &recorder);
  ASSERT_GT(full.ops, 20u) << "workload too small to be a real sweep";
  ASSERT_EQ(full.committed_keys.size(), 8u);
  ASSERT_EQ(full.committed_groups.size(), 4u);

  for (CrashMode mode : {CrashMode::kStop, CrashMode::kTornWrite}) {
    for (size_t crash_at = 0; crash_at < full.ops; ++crash_at) {
      stdfs::remove_all(dir_);
      CrashPlan plan;
      plan.crash_at_op = crash_at;
      plan.mode = mode;
      plan.seed = 17 + crash_at;
      FaultFs fs(RealFilesystem(), plan);
      WorkloadResult crashed = RunWorkload(Dir(), &fs);
      ASSERT_TRUE(fs.crashed())
          << "op " << crash_at << " never executed";
      const std::string context =
          std::string(CrashModeName(mode)) + " @ op " +
          std::to_string(crash_at) + " (" + fs.op_log()[crash_at] + ")";

      // Recover through the REAL filesystem: the crash is over, the
      // surviving bytes are what a restarted process would see.
      RecoveryOptions options;
      options.bootstrap_schema =
          integration::LastMinuteSales::MakeSchema();
      auto recovered = Recovery::Open(Dir(), options);
      ASSERT_TRUE(recovered.ok())
          << context << ": " << recovered.status().ToString();

      // The recovered fact set must be the committed groups — with one
      // exception: a crash during the *sync* of a commit whose record
      // already landed fully leaves a durable, unacknowledged group.
      // Recovery may legitimately surface that whole group, never more.
      std::multiset<std::string> keys =
          WarehouseKeys(recovered->warehouse);
      const size_t committed = crashed.committed_keys.size();
      std::multiset<std::string> expected(
          crashed.committed_keys.begin(), crashed.committed_keys.end());
      std::set<std::string> groups = crashed.committed_groups;
      if (keys.size() != committed) {
        ASSERT_EQ(keys.size(), committed + kGroupSize)
            << context << ": lost or partial group";
        ASSERT_EQ(fs.op_log()[crash_at].substr(0, 5), "sync:")
            << context << ": extra group without a crashed sync";
        expected.insert(full.committed_keys.begin() + committed,
                        full.committed_keys.begin() + committed + kGroupSize);
        groups.insert(GroupName(int(committed) / kGroupSize + 1));
      }
      ASSERT_EQ(keys, expected) << context;
      ASSERT_EQ(recovered->commits.questions, groups) << context;

      // After recovery truncated/cleaned, the directory must fsck clean.
      FsckReport fsck = Fsck(Dir()).ValueOrDie();
      EXPECT_TRUE(fsck.clean())
          << context << ": "
          << (fsck.issues.empty() ? "" : fsck.issues[0]);
    }
  }
}

/// A process that dies mid-group leaves that group's facts in the log
/// without a commit. The restarted writer commits a later group after
/// them; the crashed group's facts must stay invisible all the same.
TEST_F(CrashSweepTest, CrashedGroupStaysInvisibleAfterALaterCommit) {
  WorkloadResult result;
  CommitSet commits;
  Warehouse wh = integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
  EtlLoader loader(&wh);
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    ASSERT_TRUE(FeedGroup(1, wal.get(), &loader, &commits, &result));
    // Group 2 gets one fact into the log, then the process dies: no
    // commit, no sync.
    ASSERT_TRUE(wal->AppendFact(MakeFact(3, "Madrid")).ok());
  }
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    ASSERT_TRUE(FeedGroup(3, wal.get(), &loader, &commits, &result));
  }
  RecoveryOptions options;
  options.bootstrap_schema = integration::LastMinuteSales::MakeSchema();
  auto recovered = Recovery::Open(Dir(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(WarehouseKeys(recovered->warehouse),
            std::multiset<std::string>(result.committed_keys.begin(),
                                       result.committed_keys.end()));
  EXPECT_EQ(recovered->skipped_uncommitted, 1u);
  EXPECT_EQ(recovered->commits, commits);
  EXPECT_TRUE(Fsck(Dir()).ValueOrDie().clean());
}

/// kBitFlip is about detection, not clean recovery: a flipped bit in a
/// WAL record must be caught by the CRC and quarantined, never silently
/// loaded — and a flipped commit record hides its whole group.
TEST_F(CrashSweepTest, BitFlipDuringAppendIsCaughtByTheCrc) {
  // Find an append op to flip by recording a clean run first.
  FaultFs recorder(RealFilesystem());
  WorkloadResult full = RunWorkload(Dir(), &recorder);
  size_t append_op = full.ops;
  for (size_t i = 0; i < full.op_log.size(); ++i) {
    if (full.op_log[i].substr(0, 7) == "append:" &&
        full.op_log[i].find("wal-") != std::string::npos) {
      append_op = i;  // Keep the LAST WAL append: the last commit record.
    }
  }
  ASSERT_LT(append_op, full.ops);

  stdfs::remove_all(dir_);
  CrashPlan plan;
  plan.crash_at_op = append_op;
  plan.mode = CrashMode::kBitFlip;
  FaultFs fs(RealFilesystem(), plan);
  WorkloadResult crashed = RunWorkload(Dir(), &fs);
  ASSERT_TRUE(fs.crashed());

  RecoveryOptions options;
  options.bootstrap_schema = integration::LastMinuteSales::MakeSchema();
  auto recovered = Recovery::Open(Dir(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // The flipped commit is either inside the framing (CRC catches it →
  // quarantined) or tore the framing (truncated). Either way its group
  // must not load, and nothing committed before it may be lost.
  std::multiset<std::string> keys = WarehouseKeys(recovered->warehouse);
  EXPECT_EQ(keys.size(), crashed.committed_keys.size());
  EXPECT_TRUE(recovered->corrupt_records > 0 ||
              recovered->torn_bytes_truncated > 0)
      << "the flip vanished: neither quarantined nor truncated";
}

/// A bit flip inside a committed snapshot file must fail manifest
/// verification and make recovery fall back (to an older snapshot or the
/// WAL), not load rotten data.
TEST_F(CrashSweepTest, BitFlippedSnapshotFileIsRejectedByTheManifest) {
  FaultFs recorder(RealFilesystem());
  WorkloadResult full = RunWorkload(Dir(), &recorder);
  ASSERT_EQ(full.committed_keys.size(), 8u);

  // Corrupt one byte of one data file inside the committed snapshot.
  std::string snapshot;
  for (const auto& entry : stdfs::directory_iterator(dir_)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("snap-", 0) == 0) {
      snapshot = entry.path().string();
    }
  }
  ASSERT_FALSE(snapshot.empty());
  std::string target = snapshot + "/fact_Weather.csv";
  std::string content =
      RealFilesystem()->ReadFile(target).ValueOrDie();
  ASSERT_FALSE(content.empty());
  content[content.size() / 3] ^= 0x10;
  ASSERT_TRUE(RealFilesystem()->WriteFile(target, content).ok());

  EXPECT_FALSE(VerifySnapshot(snapshot).ok());
  RecoveryOptions options;
  options.bootstrap_schema = integration::LastMinuteSales::MakeSchema();
  auto recovered = Recovery::Open(Dir(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // The snapshot is distrusted wholesale; whatever the WAL still holds is
  // replayed instead. Garbage collection dropped only *fully* covered
  // segments, so recovery yields at least every post-snapshot fact, at
  // most the full committed set, and never invents rows — and the
  // fallback is reported, not silent.
  std::multiset<std::string> keys = WarehouseKeys(recovered->warehouse);
  std::multiset<std::string> tail(full.committed_keys.begin() + 4,
                                  full.committed_keys.end());
  std::multiset<std::string> all(full.committed_keys.begin(),
                                 full.committed_keys.end());
  EXPECT_TRUE(std::includes(keys.begin(), keys.end(), tail.begin(),
                            tail.end()))
      << "a post-snapshot committed fact was lost";
  EXPECT_TRUE(std::includes(all.begin(), all.end(), keys.begin(),
                            keys.end()))
      << "recovery invented a fact";
  EXPECT_FALSE(recovered->issues.empty());
}

}  // namespace
}  // namespace dw
}  // namespace dwqa
