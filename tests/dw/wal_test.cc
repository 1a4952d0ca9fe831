#include "dw/wal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "common/io.h"
#include "common/metrics.h"
#include "common/metric_names.h"
#include "dw/recovery.h"
#include "integration/last_minute_sales.h"
#include "tests/dw/text_mutation.h"

namespace dwqa {
namespace dw {
namespace {

namespace stdfs = std::filesystem;

WalFact SampleFact(double value = 8.0, const std::string& city = "Barcelona") {
  WalFact fact;
  fact.fact_name = "Weather";
  fact.attribute = "temperature";
  fact.value = value;
  fact.unit = "\xC2\xBA\x43";  // ºC
  fact.date_iso = "2004-01-31";
  fact.location = city;
  fact.url = "http://weather.example/" + city;
  fact.confidence = 0.75;
  fact.dedup_key = "temperature|" + city + "|2004-01-31";
  fact.record.role_paths = {{city}, {"2004-01-31", "2004-01", "2004"},
                            {fact.url}};
  fact.record.measures = {Value(value)};
  return fact;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::path(::testing::TempDir()) / (std::string("dwqa_wal_test.") + std::to_string(::getpid()));
    stdfs::remove_all(dir_);
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }

  stdfs::path dir_;
};

TEST(WalFactSerdeTest, RoundTrip) {
  WalFact fact = SampleFact();
  std::string payload = WalFactSerde::ToPayload(fact).ValueOrDie();
  WalFact back = WalFactSerde::FromPayload(payload).ValueOrDie();
  EXPECT_EQ(back.fact_name, fact.fact_name);
  EXPECT_EQ(back.attribute, fact.attribute);
  EXPECT_DOUBLE_EQ(back.value, fact.value);
  EXPECT_EQ(back.unit, fact.unit);
  EXPECT_EQ(back.date_iso, fact.date_iso);
  EXPECT_EQ(back.location, fact.location);
  EXPECT_EQ(back.url, fact.url);
  EXPECT_DOUBLE_EQ(back.confidence, fact.confidence);
  EXPECT_EQ(back.dedup_key, fact.dedup_key);
  EXPECT_EQ(back.record.role_paths, fact.record.role_paths);
  ASSERT_EQ(back.record.measures.size(), 1u);
  EXPECT_DOUBLE_EQ(back.record.measures[0].as_double(), 8.0);
}

TEST(WalFactSerdeTest, AwkwardDoublesRoundTripExactly) {
  for (double v : {-0.0, 1.0 / 3.0, 1e-300, 1.7976931348623157e308,
                   -273.15000000000003}) {
    WalFact fact = SampleFact(v);
    std::string payload = WalFactSerde::ToPayload(fact).ValueOrDie();
    WalFact back = WalFactSerde::FromPayload(payload).ValueOrDie();
    EXPECT_EQ(back.value, v);
  }
}

TEST(WalFactSerdeTest, EmbeddedTabsAndNewlinesRefusedWithFieldName) {
  WalFact tabbed = SampleFact();
  tabbed.location = "Bar\tcelona";
  Status st = WalFactSerde::ToPayload(tabbed).status();
  ASSERT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("location"), std::string::npos);

  WalFact newlined = SampleFact();
  newlined.url = "http://evil.example/\ninjected";
  st = WalFactSerde::ToPayload(newlined).status();
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("url"), std::string::npos);

  WalFact bad_role = SampleFact();
  bad_role.record.role_paths[0][0] = "a\rb";
  EXPECT_FALSE(WalFactSerde::ToPayload(bad_role).ok());

  WalFact nameless = SampleFact();
  nameless.fact_name.clear();
  EXPECT_FALSE(WalFactSerde::ToPayload(nameless).ok());
}

TEST(WalFactSerdeTest, AdversarialPayloadsRejectedWithLineNumbers) {
  // Each case must produce a typed Corruption error, never a crash.
  const char* cases[] = {
      "",                                  // Nothing at all.
      "garbage\n",                         // Unknown tag.
      "fact\tWeather\n",                   // Missing attr.
      "attr\ttemperature\t8\t\t\t\t0.5\n", // Missing fact.
      "fact\tWeather\nattr\tonly\tthree\n",
      "fact\tWeather\nattr\tt\tNaNsense\t\t\t\t0.5\n",
      "fact\tWeather\nattr\tt\t8\t\t\t\tmaybe\n",
      "fact\t\n",
      "fact\tWeather\nfact\tWeather\nattr\tt\t8\t\t\t\t0.5\n",
      "fact\tWeather\nattr\tt\t8\t\t\t\t0.5\nmeasure\tdouble\n",
      "fact\tWeather\nattr\tt\t8\t\t\t\t0.5\nmeasure\tquux\t8\n",
      "fact\tWeather\nattr\tt\t8\t\t\t\t0.5\nmeasure\tint64\t99999999999999999999\n",
      "fact\tWeather\nattr\tt\t8\t\t\t\t0.5\nmeasure\tdate\tnot-a-date\n",
  };
  for (const char* text : cases) {
    auto parsed = WalFactSerde::FromPayload(text);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find("line"), std::string::npos)
        << parsed.status().ToString();
  }
  // A truncated prefix of a valid payload never parses either.
  std::string full = WalFactSerde::ToPayload(SampleFact()).ValueOrDie();
  for (size_t cut = 0; cut < full.size(); cut += 7) {
    WalFactSerde::FromPayload(full.substr(0, cut));  // Must not crash.
  }
}

TEST_F(WalTest, AppendAssignsMonotonicLsnsAndSurvivesReopen) {
  MetricRegistry metrics;
  {
    auto wal = WalWriter::Open(Dir(), {}, nullptr, &metrics).ValueOrDie();
    EXPECT_EQ(wal->last_lsn(), 0u);
    EXPECT_EQ(wal->Append("one").ValueOrDie(), 1u);
    EXPECT_EQ(wal->Append("two").ValueOrDie(), 2u);
    EXPECT_EQ(wal->AppendFact(SampleFact()).ValueOrDie(), 3u);
  }
  // Reopen continues the LSN sequence.
  auto wal = WalWriter::Open(Dir()).ValueOrDie();
  EXPECT_EQ(wal->last_lsn(), 3u);
  EXPECT_EQ(wal->Append("four").ValueOrDie(), 4u);

  WalScan scan = ScanWal(Dir()).ValueOrDie();
  ASSERT_EQ(scan.records.size(), 4u);
  EXPECT_EQ(scan.records[0].payload, "one");
  EXPECT_EQ(scan.records[3].payload, "four");
  EXPECT_EQ(scan.last_lsn, 4u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_TRUE(scan.corrupt_records.empty());

  EXPECT_EQ(metrics.GetCounter(kMetricWalAppends)->value(), 3.0);
}

TEST_F(WalTest, SegmentsRotateAtTheByteThreshold) {
  WalOptions options;
  options.segment_bytes = 64;  // Tiny: every append or two rotates.
  auto wal = WalWriter::Open(Dir(), options).ValueOrDie();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(wal->Append("payload-" + std::to_string(i)).ok());
  }
  EXPECT_GT(wal->segment_count(), 1u);
  WalScan scan = ScanWal(Dir()).ValueOrDie();
  EXPECT_EQ(scan.records.size(), 6u);
  EXPECT_GT(scan.segments.size(), 1u);
  // Each segment header declares the LSN its file name carries.
  for (const WalSegmentInfo& info : scan.segments) {
    EXPECT_FALSE(info.torn());
  }
}

TEST_F(WalTest, ExplicitRotateStartsANewSegment) {
  auto wal = WalWriter::Open(Dir()).ValueOrDie();
  ASSERT_TRUE(wal->Append("a").ok());
  std::string first_segment = wal->current_segment_path();
  ASSERT_TRUE(wal->Rotate().ok());
  ASSERT_TRUE(wal->Append("b").ok());
  EXPECT_NE(wal->current_segment_path(), first_segment);
  EXPECT_EQ(wal->segment_count(), 2u);
}

TEST_F(WalTest, DropSegmentsCoveredKeepsTheTail) {
  WalOptions options;
  options.segment_bytes = 1;  // Rotate on every append.
  auto wal = WalWriter::Open(Dir(), options).ValueOrDie();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(wal->Append("p" + std::to_string(i)).ok());
  }
  ASSERT_EQ(wal->segment_count(), 4u);  // One record per segment.
  size_t dropped = wal->DropSegmentsCoveredBy(2).ValueOrDie();
  EXPECT_EQ(dropped, 2u);
  // Records past the cover point are still scannable.
  WalScan scan = ScanWal(Dir()).ValueOrDie();
  ASSERT_FALSE(scan.records.empty());
  EXPECT_EQ(scan.last_lsn, 4u);
  for (const WalRecord& rec : scan.records) {
    EXPECT_GT(rec.lsn, 2u);
  }
  // The current segment is never dropped, even when fully covered.
  EXPECT_EQ(wal->DropSegmentsCoveredBy(100).ValueOrDie(), 1u);
  EXPECT_EQ(wal->segment_count(), 1u);
  EXPECT_EQ(ScanWal(Dir()).ValueOrDie().last_lsn, 4u);
}

TEST_F(WalTest, TornTailIsDetectedAndTruncatedOnReopen) {
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    ASSERT_TRUE(wal->Append("committed-1").ok());
    ASSERT_TRUE(wal->Append("committed-2").ok());
  }
  // Simulate a torn append: half a record header lands at the tail.
  WalScan before = ScanWal(Dir()).ValueOrDie();
  ASSERT_EQ(before.segments.size(), 1u);
  std::string segment = Dir() + "/" + before.segments[0].file;
  {
    std::ofstream out(segment, std::ios::app | std::ios::binary);
    out << "rec\t3\t99";  // No CRC, no newline, no payload.
  }
  WalScan torn = ScanWal(Dir()).ValueOrDie();
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_GT(torn.torn_bytes, 0u);
  EXPECT_EQ(torn.records.size(), 2u);  // Committed records still parse.

  // Reopen truncates the tear and appends cleanly after it.
  auto wal = WalWriter::Open(Dir()).ValueOrDie();
  EXPECT_EQ(wal->last_lsn(), 2u);
  ASSERT_TRUE(wal->Append("after-recovery").ok());
  WalScan after = ScanWal(Dir()).ValueOrDie();
  EXPECT_FALSE(after.torn_tail);
  ASSERT_EQ(after.records.size(), 3u);
  EXPECT_EQ(after.records[2].payload, "after-recovery");
}

TEST_F(WalTest, CrcMismatchSkipsTheRecordButKeepsFraming) {
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    ASSERT_TRUE(wal->Append("first").ok());
    ASSERT_TRUE(wal->Append("second").ok());
    ASSERT_TRUE(wal->Append("third").ok());
  }
  WalScan clean = ScanWal(Dir()).ValueOrDie();
  std::string segment = Dir() + "/" + clean.segments[0].file;
  // Flip one byte inside the middle record's payload ("second").
  std::ifstream in(segment, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  size_t at = content.find("second");
  ASSERT_NE(at, std::string::npos);
  content[at] ^= 0x20;
  {
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out << content;
  }
  WalScan scan = ScanWal(Dir()).ValueOrDie();
  EXPECT_FALSE(scan.torn_tail);  // Framing intact: not a tear.
  ASSERT_EQ(scan.corrupt_records.size(), 1u);
  EXPECT_EQ(scan.corrupt_records[0].lsn, 2u);
  // The healthy neighbours still replay.
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].payload, "first");
  EXPECT_EQ(scan.records[1].payload, "third");
  ASSERT_FALSE(scan.issues.empty());
  EXPECT_NE(scan.issues[0].find("CRC mismatch"), std::string::npos);
}

TEST_F(WalTest, GarbageSegmentHeaderIsATornTail) {
  stdfs::create_directories(dir_);
  {
    std::ofstream out(dir_ / "wal-00000000000000000001.log",
                      std::ios::binary);
    out << "this is not a wal segment\nat all\n";
  }
  WalScan scan = ScanWal(Dir()).ValueOrDie();
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_TRUE(scan.records.empty());
  // Open() recovers by dropping the unusable file and starting fresh.
  auto wal = WalWriter::Open(Dir()).ValueOrDie();
  EXPECT_EQ(wal->Append("fresh").ValueOrDie(), 1u);
}

TEST_F(WalTest, ScanOfMissingDirectoryIsEmptyNotAnError) {
  WalScan scan = ScanWal(Dir() + "/never_created").ValueOrDie();
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.last_lsn, 0u);
  EXPECT_FALSE(scan.torn_tail);
}

TEST_F(WalTest, UnsyncedAppendsAreFlushedByExplicitSync) {
  MetricRegistry metrics;
  auto wal = WalWriter::Open(Dir(), {}, nullptr, &metrics).ValueOrDie();
  ASSERT_TRUE(wal->Append("a").ok());
  ASSERT_TRUE(wal->Append("b").ok());
  // Appends only write: the sync is the caller's one barrier.
  double syncs_before = metrics.GetCounter(kMetricWalSyncs)->value();
  EXPECT_EQ(syncs_before, 0.0);
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(metrics.GetCounter(kMetricWalSyncs)->value(), syncs_before + 1);
  // A second Sync with nothing dirty is a no-op barrier.
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(metrics.GetCounter(kMetricWalSyncs)->value(), syncs_before + 1);
}

/// The real filesystem, except that every fsync fails while armed: by
/// path, and that of an open file (the WAL's commit sync).
class FailingSyncFs : public FaultFs {
 public:
  bool fail_syncs = false;

  Status SyncFile(const std::string& path) override {
    if (fail_syncs) return Status::IOError("injected fsync failure");
    return FaultFs::SyncFile(path);
  }

 protected:
  Status SyncOpenFile(const std::string& path, WritableFile* base) override {
    if (fail_syncs) return Status::IOError("injected fsync failure");
    return FaultFs::SyncOpenFile(path, base);
  }
};

/// A group that straddles a rotation leaves two segments unsynced; the
/// one Sync must fsync both, the closed one included.
TEST_F(WalTest, SyncCoversASegmentClosedByRotation) {
  FaultFs recorder(RealFilesystem());
  WalOptions options;
  options.segment_bytes = 1;  // Rotate on every append.
  auto wal = WalWriter::Open(Dir(), options, &recorder).ValueOrDie();
  ASSERT_TRUE(wal->Append("first").ok());
  std::string first_segment = wal->current_segment_path();
  ASSERT_TRUE(wal->Append("second").ok());
  std::string second_segment = wal->current_segment_path();
  ASSERT_NE(first_segment, second_segment);
  // Each segment was synced once at creation; count the commit's syncs.
  const size_t ops_before_sync = recorder.op_count();
  ASSERT_TRUE(wal->Sync().ok());
  std::vector<std::string> syncs;
  for (size_t i = ops_before_sync; i < recorder.op_log().size(); ++i) {
    const std::string& op = recorder.op_log()[i];
    if (op.rfind("sync:", 0) == 0) syncs.push_back(op.substr(5));
  }
  EXPECT_EQ(syncs,
            (std::vector<std::string>{first_segment, second_segment}));
}

/// A failed sync cuts everything appended since the last good sync back
/// off the log — nothing there was acknowledged — and fails the writer
/// until the log is reopened.
TEST_F(WalTest, FailedSyncCutsTheUnsyncedTailAndFailsTheWriter) {
  FailingSyncFs fs;
  {
    WalOptions options;
    options.segment_bytes = 64;
    auto wal = WalWriter::Open(Dir(), options, &fs).ValueOrDie();
    ASSERT_TRUE(wal->Append("acknowledged").ok());
    ASSERT_TRUE(wal->Sync().ok());
    for (int i = 0; i < 4; ++i) {  // Long enough to rotate.
      ASSERT_TRUE(wal->Append("unacknowledged-" + std::to_string(i)).ok());
    }
    ASSERT_GT(wal->segment_count(), 1u);
    fs.fail_syncs = true;
    EXPECT_FALSE(wal->Sync().ok());
    fs.fail_syncs = false;
    EXPECT_FALSE(wal->Append("after").ok());
    EXPECT_FALSE(wal->Sync().ok());
  }
  WalScan scan = ScanWal(Dir()).ValueOrDie();
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].payload, "acknowledged");
  EXPECT_FALSE(scan.torn_tail);
  auto wal = WalWriter::Open(Dir()).ValueOrDie();
  EXPECT_EQ(wal->Append("reopened").ValueOrDie(), 2u);
}

/// Recovery's cut of a torn segment and a failed sync's cut both shrink
/// the preallocated segment. Reopening gives it its zero tail back with
/// one write and one sync, so later commits write in place again and the
/// file's size stays put.
TEST_F(WalTest, ReopenRestoresTheZeroTailOfACutSegment) {
  WalOptions options;
  options.segment_bytes = 4096;
  const std::string segment = Dir() + "/wal-00000000000000000001.log";
  {
    auto wal = WalWriter::Open(Dir(), options).ValueOrDie();
    ASSERT_TRUE(wal->Append("committed").ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  // A torn record header over the zeros, as a crash mid-append leaves it.
  const size_t end = ScanWal(Dir()).ValueOrDie().segments[0].end_offset;
  ASSERT_TRUE(RealFilesystem()
                  ->OpenWritable(segment)
                  .ValueOrDie()
                  ->WriteAt(end, "rec\t2\t99")
                  .ok());
  {
    FaultFs recorder(RealFilesystem());
    auto wal = WalWriter::Open(Dir(), options, &recorder).ValueOrDie();
    EXPECT_EQ(recorder.op_log(),
              (std::vector<std::string>{"mkdir:" + Dir(),
                                        "truncate:" + segment,
                                        "sync:" + segment,
                                        "append:" + segment,
                                        "sync:" + segment}));
    EXPECT_EQ(stdfs::file_size(segment), 4096u);
    ASSERT_EQ(wal->Append("after-recovery").ValueOrDie(), 2u);
    ASSERT_TRUE(wal->Sync().ok());
    EXPECT_EQ(stdfs::file_size(segment), 4096u);
  }

  // A failed sync cuts the unacknowledged record off the same way.
  FailingSyncFs fs;
  {
    auto wal = WalWriter::Open(Dir(), options, &fs).ValueOrDie();
    ASSERT_TRUE(wal->Append("unacknowledged").ok());
    fs.fail_syncs = true;
    EXPECT_FALSE(wal->Sync().ok());
  }
  EXPECT_LT(stdfs::file_size(segment), 4096u);
  auto wal = WalWriter::Open(Dir(), options).ValueOrDie();
  EXPECT_EQ(stdfs::file_size(segment), 4096u);
  ASSERT_EQ(wal->Append("reopened").ValueOrDie(), 3u);
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(stdfs::file_size(segment), 4096u);
  WalScan scan = ScanWal(Dir()).ValueOrDie();
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[2].payload, "reopened");
}

/// A segment's text as the writer frames it (the layout wal.h documents),
/// followed by `zeros` zero bytes.
std::string SegmentText(Lsn start_lsn, const std::vector<WalRecord>& records,
                        size_t zeros = 0) {
  std::string text = "dwqa-wal\t1\t" + std::to_string(start_lsn) + "\n";
  for (const WalRecord& rec : records) {
    text += "rec\t" + std::to_string(rec.lsn) + "\t" +
            std::to_string(rec.payload.size()) + "\t" +
            Crc32Hex(rec.payload) + "\n" + rec.payload + "\n";
  }
  return text + std::string(zeros, '\0');
}

std::string ReadAll(const std::string& path) {
  return RealFilesystem()->ReadFile(path).ValueOrDie();
}

bool SameRecords(const std::vector<WalRecord>& a,
                 const std::vector<WalRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].lsn != b[i].lsn || a[i].payload != b[i].payload) return false;
  }
  return true;
}

/// Frames stay byte-identical: a new segment is the header, the frame of
/// each record, and zeros up to segment_bytes.
TEST_F(WalTest, SegmentBytesArePinned) {
  WalOptions options;
  options.segment_bytes = 4096;
  auto wal = WalWriter::Open(Dir(), options).ValueOrDie();
  ASSERT_EQ(wal->Append("hello").ValueOrDie(), 1u);
  ASSERT_EQ(wal->Append("commit\t1\t1\nquestion\tq\n").ValueOrDie(), 2u);
  ASSERT_TRUE(wal->Sync().ok());
  const std::string expected =
      std::string("dwqa-wal\t1\t1\n") +
      "rec\t1\t5\t3610a686\nhello\n"
      "rec\t2\t22\t3213192a\ncommit\t1\t1\nquestion\tq\n\n";
  const std::string content = ReadAll(wal->current_segment_path());
  ASSERT_EQ(content.size(), 4096u);
  EXPECT_EQ(content.substr(0, expected.size()), expected);
  EXPECT_EQ(content.substr(expected.size()),
            std::string(4096 - expected.size(), '\0'));
}

/// A segment is made durable once, at creation: its zero image, then the
/// file, then the directory entry. Appends only write in place.
TEST_F(WalTest, SegmentCreationSyncsTheFileAndItsDirectory) {
  FaultFs recorder(RealFilesystem());
  auto wal = WalWriter::Open(Dir(), {}, &recorder).ValueOrDie();
  const std::string segment = wal->current_segment_path();
  ASSERT_TRUE(wal->Append("a").ok());
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(recorder.op_log(),
            (std::vector<std::string>{"mkdir:" + Dir(), "write:" + segment,
                                      "sync:" + segment, "syncdir:" + Dir(),
                                      "append:" + segment,
                                      "sync:" + segment}));
}

/// Removing segments past a tear is a directory change: it is synced.
TEST_F(WalTest, TornTailRemovalSyncsTheDirectory) {
  WalOptions options;
  options.segment_bytes = 1;  // One record per segment.
  {
    auto wal = WalWriter::Open(Dir(), options).ValueOrDie();
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(wal->Append("p").ok());
  }
  const std::string first = Dir() + "/wal-00000000000000000001.log";
  {
    std::ofstream out(first, std::ios::app | std::ios::binary);
    out << "rec\t9";  // Tears the first segment: the later two go.
  }
  WalScan scan = ScanWal(Dir()).ValueOrDie();
  ASSERT_TRUE(scan.torn_tail);
  FaultFs recorder(RealFilesystem());
  ASSERT_EQ(TruncateTornTail(Dir(), scan, &recorder).ValueOrDie(),
            scan.torn_bytes);
  EXPECT_EQ(recorder.op_log(),
            (std::vector<std::string>{
                "truncate:" + first, "sync:" + first,
                "remove:" + Dir() + "/wal-00000000000000000002.log",
                "remove:" + Dir() + "/wal-00000000000000000003.log",
                "syncdir:" + Dir()}));
  EXPECT_EQ(ScanWal(Dir()).ValueOrDie().records.size(), 1u);
}

TEST_F(WalTest, RecordsFollowedByZerosScanClean) {
  auto wal = WalWriter::Open(Dir()).ValueOrDie();
  ASSERT_TRUE(wal->Append("one").ok());
  ASSERT_TRUE(wal->AppendFact(SampleFact()).ok());
  ASSERT_TRUE(wal->Sync().ok());
  // The commit wrote in place: the segment keeps its preallocated size.
  EXPECT_EQ(stdfs::file_size(wal->current_segment_path()),
            WalOptions().segment_bytes);
  WalScan scan = ScanWal(Dir()).ValueOrDie();
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.torn_bytes, 0u);
  EXPECT_TRUE(scan.issues.empty()) << scan.issues[0];
  ASSERT_EQ(scan.records.size(), 2u);
  ASSERT_EQ(scan.segments.size(), 1u);
  const std::string content = ReadAll(wal->current_segment_path());
  EXPECT_EQ(scan.segments[0].end_offset, content.find_last_not_of('\0') + 1);
}

TEST_F(WalTest, TornRecordBeforeTheZeroTailIsATear) {
  std::string segment;
  size_t end = 0;
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    ASSERT_TRUE(wal->Append("committed-1").ok());
    ASSERT_TRUE(wal->Append("committed-2").ok());
    segment = wal->current_segment_path();
    end = ScanWal(Dir()).ValueOrDie().segments[0].end_offset;
  }
  // Every strict prefix of the next frame, landed in place over zeros.
  const std::string frame =
      SegmentText(3, {{3, "never-synced"}}).substr(SegmentText(3, {}).size());
  const std::string clean = ReadAll(segment);
  for (size_t cut = 1; cut < frame.size(); ++cut) {
    std::string torn = clean;
    torn.replace(end, cut, frame.substr(0, cut));
    ASSERT_TRUE(RealFilesystem()->WriteFile(segment, torn).ok());
    WalScan scan = ScanWal(Dir()).ValueOrDie();
    ASSERT_TRUE(scan.torn_tail) << "cut " << cut;
    EXPECT_EQ(scan.segments[0].torn_offset, end) << "cut " << cut;
    EXPECT_EQ(scan.torn_bytes, cut) << "cut " << cut;
    EXPECT_EQ(scan.records.size(), 2u) << "cut " << cut;
  }
  // Open cuts the tear off and appends right where it began.
  auto wal = WalWriter::Open(Dir()).ValueOrDie();
  EXPECT_EQ(wal->Append("after-recovery").ValueOrDie(), 3u);
  WalScan after = ScanWal(Dir()).ValueOrDie();
  EXPECT_FALSE(after.torn_tail);
  ASSERT_EQ(after.records.size(), 3u);
  EXPECT_EQ(after.records[2].payload, "after-recovery");
}

TEST_F(WalTest, NonZeroBytesAfterZerosAreATear) {
  std::string segment;
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    ASSERT_TRUE(wal->Append("committed").ok());
    segment = wal->current_segment_path();
  }
  const size_t end = ScanWal(Dir()).ValueOrDie().segments[0].end_offset;
  std::string content = ReadAll(segment);
  content[end + 100] = 'x';
  ASSERT_TRUE(RealFilesystem()->WriteFile(segment, content).ok());
  WalScan scan = ScanWal(Dir()).ValueOrDie();
  ASSERT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.segments[0].torn_offset, end);
  EXPECT_EQ(scan.torn_bytes, 101u);  // Up to the last non-zero byte.
  ASSERT_EQ(scan.records.size(), 1u);
  ASSERT_EQ(scan.issues.size(), 1u);
  EXPECT_NE(scan.issues[0].find("torn tail at offset " + std::to_string(end)),
            std::string::npos)
      << scan.issues[0];
}

TEST_F(WalTest, ReopenedWriterAppendsRightAfterTheLastRecord) {
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    ASSERT_TRUE(wal->Append("a").ok());
    ASSERT_TRUE(wal->Append("b").ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  auto wal = WalWriter::Open(Dir()).ValueOrDie();
  ASSERT_EQ(wal->Append("c").ValueOrDie(), 3u);
  ASSERT_TRUE(wal->Sync().ok());
  const std::string expected = SegmentText(1, {{1, "a"}, {2, "b"}, {3, "c"}});
  EXPECT_EQ(ReadAll(wal->current_segment_path()),
            expected + std::string(WalOptions().segment_bytes -
                                       expected.size(),
                                   '\0'));
}

/// A log written before segments were preallocated has no zero tail: it
/// scans as it always did, and the writer gives its last segment the zero
/// tail of a preallocated one and continues it at its last record.
TEST_F(WalTest, LogWithoutAZeroTailScansAndContinues) {
  stdfs::create_directories(dir_);
  const std::string segment = (dir_ / "wal-00000000000000000001.log").string();
  ASSERT_TRUE(RealFilesystem()
                  ->WriteFile(segment, SegmentText(1, {{1, "old-1"},
                                                       {2, "old-2"}}))
                  .ok());
  WalScan before = ScanWal(Dir()).ValueOrDie();
  EXPECT_FALSE(before.torn_tail);
  EXPECT_TRUE(before.issues.empty());
  ASSERT_EQ(before.records.size(), 2u);
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    EXPECT_EQ(wal->last_lsn(), 2u);
    ASSERT_EQ(wal->Append("new-3").ValueOrDie(), 3u);
    ASSERT_TRUE(wal->Sync().ok());
  }
  const std::string expected =
      SegmentText(1, {{1, "old-1"}, {2, "old-2"}, {3, "new-3"}});
  EXPECT_EQ(ReadAll(segment),
            expected + std::string(WalOptions().segment_bytes -
                                       expected.size(),
                                   '\0'));
  WalScan after = ScanWal(Dir()).ValueOrDie();
  EXPECT_FALSE(after.torn_tail);
  EXPECT_EQ(after.records.size(), 3u);
}

TEST_F(WalTest, RecoveryOfACleanPreallocatedLogFindsNoTornTail) {
  {
    auto wal = WalWriter::Open(Dir()).ValueOrDie();
    WalCommit commit;
    commit.question = "What is the temperature in Barcelona?";
    commit.first_lsn = wal->AppendFact(SampleFact(8.0)).ValueOrDie();
    commit.last_lsn = wal->AppendFact(SampleFact(9.0, "Madrid")).ValueOrDie();
    ASSERT_TRUE(wal->AppendCommit(commit).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  RecoveryOptions options;
  options.bootstrap_schema = integration::LastMinuteSales::MakeSchema();
  auto recovered = Recovery::Open(Dir(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->torn_bytes_truncated, 0u);
  EXPECT_EQ(recovered->replayed, 2u);
  EXPECT_EQ(recovered->last_lsn, 3u);
  for (const std::string& issue : recovered->issues) {
    EXPECT_EQ(issue.find("torn"), std::string::npos) << issue;
  }
  EXPECT_TRUE(ScanWal(Dir()).ValueOrDie().issues.empty());
}

TEST(WalCommitSerdeTest, RoundTrip) {
  WalCommit commit;
  commit.question = "What is the temperature in Barcelona (\\ 'BCN')?";
  commit.first_lsn = 5;
  commit.last_lsn = 9;
  commit.refused = {6, 9};
  std::string payload = WalCommitSerde::ToPayload(commit).ValueOrDie();
  EXPECT_TRUE(WalCommitSerde::IsCommit(payload));
  EXPECT_FALSE(WalCommitSerde::IsCommit(
      WalFactSerde::ToPayload(SampleFact()).ValueOrDie()));
  EXPECT_EQ(WalCommitSerde::FromPayload(payload).ValueOrDie(), commit);

  WalCommit empty;  // A question that logged no facts.
  empty.question = "unanswered";
  EXPECT_EQ(WalCommitSerde::FromPayload(
                WalCommitSerde::ToPayload(empty).ValueOrDie())
                .ValueOrDie(),
            empty);

  // A question that would tear the framing is refused, not mangled.
  for (const char* bad : {"tab\there", "new\nline", "carriage\rreturn"}) {
    EXPECT_TRUE(WalCommitSerde::ToPayload({bad}).status().IsInvalidArgument())
        << bad;
  }
}

TEST(WalCommitSerdeTest, MalformedPayloadsAreTypedErrors) {
  const char* cases[] = {
      "",
      "commit\t1\n",                                 // Short header.
      "commit\t5\t3\nquestion\tq\n",                 // Inverted range.
      "commit\t0\t3\nquestion\tq\n",                 // Half-empty range.
      "commit\t1\t3\n",                              // Missing question.
      "commit\t1\t3\nquestion\tq\nquestion\tq\n",    // Duplicate question.
      "commit\t1\t3\nquestion\tq\nrefused\t4\n",     // Refused outside.
      "commit\t1\t3\nquestion\tq\nrefused\tx\n",     // Non-numeric.
      "commit\t1\t3\nquestion\tq\r\n",               // Carriage return.
      "commit\t0\t0\nquestion\tq\nrefused\t0\n",     // Refused, no range.
      "commit\t1\t3\nquestion\tq\nzap\tx\n",         // Unknown tag.
      "commit\t1\t3\nquestion\n",                    // No tab.
  };
  for (const char* text : cases) {
    auto parsed = WalCommitSerde::FromPayload(text);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find("line"), std::string::npos);
  }
}

CommitSet SampleCommitSet() {
  CommitSet commits;
  commits.questions = {"What is the temperature in Barcelona?",
                       "What is the temperature in Madrid?"};
  commits.fed_keys = {"temperature|barcelona|2004-01-31",
                      "temperature|madrid|2004-01-30"};
  return commits;
}

TEST(CommitSetSerdeTest, TextRoundTrip) {
  CommitSet commits = SampleCommitSet();
  EXPECT_EQ(CommitSetSerde::FromText(
                CommitSetSerde::ToText(commits).ValueOrDie())
                .ValueOrDie(),
            commits);
  commits.fed_keys.insert("torn\nkey");
  EXPECT_TRUE(CommitSetSerde::ToText(commits).status().IsInvalidArgument());
}

TEST(CommitSetSerdeTest, EmptyCommitSetRoundTrips) {
  CommitSet empty;
  EXPECT_EQ(CommitSetSerde::FromText(
                CommitSetSerde::ToText(empty).ValueOrDie())
                .ValueOrDie(),
            empty);
}

TEST(CommitSetSerdeTest, MissingMagicIsRejected) {
  auto parsed = CommitSetSerde::FromText("question\tq\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
  EXPECT_FALSE(CommitSetSerde::FromText("").ok());
}

TEST(CommitSetSerdeTest, GarbageLinesAreRejectedWithLineNumbers) {
  auto parsed =
      CommitSetSerde::FromText("dwqa-commits\t1\nkey\tk\ngarbage\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos)
      << parsed.status().ToString();
  parsed = CommitSetSerde::FromText("dwqa-commits\t1\nzap\tk\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos);
}

// Parser fuzz: mutated payloads parse to a value that re-serializes to a
// fixed point, or fail with a typed Corruption error — never crash.
TEST(WalParserFuzzProperty, MutatedFactPayloadsDoNotCrash) {
  FuzzMutations(WalFactSerde::ToPayload(SampleFact()).ValueOrDie(), 7,
                [](const std::string& payload) {
                  auto parsed = WalFactSerde::FromPayload(payload);
                  if (!parsed.ok()) {
                    EXPECT_TRUE(parsed.status().IsCorruption())
                        << parsed.status().ToString();
                    return;
                  }
                  auto text = WalFactSerde::ToPayload(*parsed);
                  ASSERT_TRUE(text.ok()) << text.status().ToString();
                  auto again = WalFactSerde::FromPayload(*text);
                  ASSERT_TRUE(again.ok()) << again.status().ToString();
                  EXPECT_EQ(WalFactSerde::ToPayload(*again).ValueOrDie(),
                            *text);
                });
}

TEST(WalParserFuzzProperty, MutatedCommitPayloadsDoNotCrash) {
  WalCommit commit;
  commit.question = "What is the temperature in Madrid (\\ 'MAD')?";
  commit.first_lsn = 12;
  commit.last_lsn = 19;
  commit.refused = {13, 19};
  FuzzMutations(WalCommitSerde::ToPayload(commit).ValueOrDie(), 11,
                [](const std::string& payload) {
                  auto parsed = WalCommitSerde::FromPayload(payload);
                  if (!parsed.ok()) {
                    EXPECT_TRUE(parsed.status().IsCorruption())
                        << parsed.status().ToString();
                    return;
                  }
                  auto text = WalCommitSerde::ToPayload(*parsed);
                  ASSERT_TRUE(text.ok()) << text.status().ToString();
                  EXPECT_EQ(WalCommitSerde::FromPayload(*text).ValueOrDie(),
                            *parsed);
                });
}

TEST(WalParserFuzzProperty, MutatedCommitSetFilesDoNotCrash) {
  FuzzMutations(CommitSetSerde::ToText(SampleCommitSet()).ValueOrDie(), 13,
                [](const std::string& text) {
                  auto parsed = CommitSetSerde::FromText(text);
                  if (!parsed.ok()) {
                    EXPECT_TRUE(parsed.status().IsCorruption())
                        << parsed.status().ToString();
                    return;
                  }
                  auto again = CommitSetSerde::ToText(*parsed);
                  ASSERT_TRUE(again.ok()) << again.status().ToString();
                  EXPECT_EQ(CommitSetSerde::FromText(*again).ValueOrDie(),
                            *parsed);
                });
}

/// A preallocated segment holding a fact and its commit, its path and the
/// offset its zero tail starts at.
struct PreallocatedSegment {
  std::string path;
  std::string content;
  size_t end = 0;
  std::vector<WalRecord> records;
};

PreallocatedSegment WritePreallocatedSegment(const std::string& dir) {
  WalOptions options;
  options.segment_bytes = 1024;
  auto wal = WalWriter::Open(dir, options).ValueOrDie();
  WalCommit commit;
  commit.question = "What is the temperature in Barcelona?";
  commit.first_lsn = wal->AppendFact(SampleFact()).ValueOrDie();
  commit.last_lsn = commit.first_lsn;
  EXPECT_TRUE(wal->AppendCommit(commit).ok());
  EXPECT_TRUE(wal->Sync().ok());
  WalScan scan = ScanWal(dir).ValueOrDie();
  return {wal->current_segment_path(), ReadAll(wal->current_segment_path()),
          scan.segments[0].end_offset, scan.records};
}

// Segment fuzz: a mutated preallocated segment either yields a typed tear
// or CRC finding, or its records re-frame into a segment that scans to
// the same records.
TEST_F(WalTest, MutatedPreallocatedSegmentsTearOrRoundTrip) {
  const PreallocatedSegment base = WritePreallocatedSegment(Dir());
  ASSERT_EQ(base.records.size(), 2u);
  FuzzMutations(base.content, 19, [&](const std::string& mutated) {
    ASSERT_TRUE(RealFilesystem()->WriteFile(base.path, mutated).ok());
    WalScan scan = ScanWal(Dir()).ValueOrDie();
    if (scan.torn_tail || !scan.corrupt_records.empty()) {
      ASSERT_FALSE(scan.issues.empty());
      return;
    }
    ASSERT_EQ(scan.segments.size(), 1u);
    ASSERT_TRUE(RealFilesystem()
                    ->WriteFile(base.path,
                                SegmentText(scan.segments[0].start_lsn,
                                            scan.records, 64))
                    .ok());
    WalScan again = ScanWal(Dir()).ValueOrDie();
    EXPECT_FALSE(again.torn_tail);
    EXPECT_TRUE(again.corrupt_records.empty());
    EXPECT_TRUE(SameRecords(again.records, scan.records));
  });
}

// Zero-tail fuzz: edits past the last record never yield a record. The
// segment scans clean while the tail is all zeros and tears at its start
// once it holds anything else.
TEST_F(WalTest, MutatedZeroTailNeverYieldsARecord) {
  const PreallocatedSegment base = WritePreallocatedSegment(Dir());
  FuzzMutations(
      base.content, 23,
      [&](const std::string& mutated) {
        ASSERT_EQ(mutated.substr(0, base.end), base.content.substr(0, base.end));
        ASSERT_TRUE(RealFilesystem()->WriteFile(base.path, mutated).ok());
        WalScan scan = ScanWal(Dir()).ValueOrDie();
        EXPECT_TRUE(SameRecords(scan.records, base.records));
        EXPECT_TRUE(scan.corrupt_records.empty());
        const bool zero_tail =
            mutated.find_first_not_of('\0', base.end) == std::string::npos;
        EXPECT_EQ(scan.torn_tail, !zero_tail);
        if (!zero_tail) {
          EXPECT_EQ(scan.segments[0].torn_offset, base.end);
        }
      },
      base.end);
}

}  // namespace
}  // namespace dw
}  // namespace dwqa
