#include "common/io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

namespace dwqa {
namespace {

namespace stdfs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::path(::testing::TempDir()) / (std::string("dwqa_io_test.") + std::to_string(::getpid()));
    stdfs::remove_all(dir_);
    stdfs::create_directories(dir_);
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  stdfs::path dir_;
};

TEST(Crc32Test, KnownVectors) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32Hex("123456789"), "cbf43926");
}

TEST(Crc32Test, SingleBitFlipChangesTheSum) {
  std::string data = "the quick brown fox";
  uint32_t clean = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    std::string flipped = data;
    flipped[i] ^= 0x01;
    EXPECT_NE(Crc32(flipped), clean) << "flip at byte " << i;
  }
}

TEST_F(IoTest, RealFsRoundTrip) {
  Fs* fs = RealFilesystem();
  ASSERT_TRUE(fs->WriteFile(Path("a.txt"), "hello").ok());
  EXPECT_TRUE(fs->Exists(Path("a.txt")));
  EXPECT_EQ(fs->ReadFile(Path("a.txt")).ValueOrDie(), "hello");
  {
    auto file = fs->OpenWritable(Path("a.txt")).ValueOrDie();
    ASSERT_TRUE(file->WriteAt(5, " world").ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  EXPECT_EQ(fs->ReadFile(Path("a.txt")).ValueOrDie(), "hello world");
  EXPECT_EQ(stdfs::file_size(Path("a.txt")), 11u);
  ASSERT_TRUE(fs->TruncateFile(Path("a.txt"), 5).ok());
  EXPECT_EQ(fs->ReadFile(Path("a.txt")).ValueOrDie(), "hello");
  ASSERT_TRUE(fs->Rename(Path("a.txt"), Path("b.txt")).ok());
  EXPECT_FALSE(fs->Exists(Path("a.txt")));
  EXPECT_TRUE(fs->Exists(Path("b.txt")));
  ASSERT_TRUE(fs->RemoveFile(Path("b.txt")).ok());
  EXPECT_FALSE(fs->Exists(Path("b.txt")));
}

TEST_F(IoTest, WritableFileWritesInPlaceAndExtends) {
  Fs* fs = RealFilesystem();
  ASSERT_TRUE(fs->WriteFile(Path("log"), std::string(8, '\0')).ok());
  auto file = fs->OpenWritable(Path("log")).ValueOrDie();
  // In place: the size stays, the bytes after the write stay zero.
  ASSERT_TRUE(file->WriteAt(2, "ab").ok());
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_EQ(fs->ReadFile(Path("log")).ValueOrDie(),
            std::string("\0\0ab\0\0\0\0", 8));
  // Past the end: the file grows to hold the write.
  ASSERT_TRUE(file->WriteAt(6, "xyz").ok());
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_EQ(fs->ReadFile(Path("log")).ValueOrDie(),
            std::string("\0\0ab\0\0xyz", 9));
}

TEST_F(IoTest, OpenWritableNeverCreates) {
  EXPECT_TRUE(
      RealFilesystem()->OpenWritable(Path("ghost")).status().IsIOError());
  EXPECT_FALSE(RealFilesystem()->Exists(Path("ghost")));
}

TEST_F(IoTest, SyncDirSyncsADirectoryAndRefusesAMissingOne) {
  Fs* fs = RealFilesystem();
  EXPECT_TRUE(fs->SyncDir(dir_.string()).ok());
  EXPECT_TRUE(fs->SyncDir(Path("ghost")).IsIOError());
}

TEST_F(IoTest, WriteFileAtomicSyncsTheDirectoryAfterTheRename) {
  FaultFs fs(RealFilesystem());
  ASSERT_TRUE(WriteFileAtomic(&fs, Path("x"), "data").ok());
  EXPECT_EQ(fs.op_log(),
            (std::vector<std::string>{
                "write:" + Path("x") + ".tmp", "sync:" + Path("x") + ".tmp",
                "rename:" + Path("x") + ".tmp", "syncdir:" + dir_.string()}));
}

TEST_F(IoTest, ListDirIsSorted) {
  Fs* fs = RealFilesystem();
  ASSERT_TRUE(fs->WriteFile(Path("c"), "").ok());
  ASSERT_TRUE(fs->WriteFile(Path("a"), "").ok());
  ASSERT_TRUE(fs->WriteFile(Path("b"), "").ok());
  auto entries = fs->ListDir(dir_.string()).ValueOrDie();
  EXPECT_EQ(entries, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(IoTest, ReadOfMissingFileIsIOError) {
  EXPECT_TRUE(
      RealFilesystem()->ReadFile(Path("ghost")).status().IsIOError());
}

TEST_F(IoTest, WriteFileAtomicReplacesAndLeavesNoTmp) {
  Fs* fs = RealFilesystem();
  ASSERT_TRUE(WriteFileAtomic(fs, Path("x"), "first").ok());
  ASSERT_TRUE(WriteFileAtomic(fs, Path("x"), "second").ok());
  EXPECT_EQ(fs->ReadFile(Path("x")).ValueOrDie(), "second");
  EXPECT_FALSE(fs->Exists(Path("x") + ".tmp"));
}

TEST_F(IoTest, FaultFsRecordsMutatingOpsOnly) {
  FaultFs fs(RealFilesystem());
  ASSERT_TRUE(fs.WriteFile(Path("f"), "data").ok());
  // Opening books nothing; the open file's write and sync book the
  // append and sync ops of its path.
  auto file = fs.OpenWritable(Path("f")).ValueOrDie();
  ASSERT_TRUE(file->WriteAt(4, "+").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(fs.SyncFile(Path("f")).ok());
  ASSERT_TRUE(fs.SyncDir(dir_.string()).ok());
  // Reads do not book ops: the crash sweep only enumerates writes.
  EXPECT_TRUE(fs.ReadFile(Path("f")).ok());
  EXPECT_TRUE(fs.Exists(Path("f")));
  EXPECT_TRUE(fs.ListDir(dir_.string()).ok());
  EXPECT_EQ(fs.op_count(), 5u);
  EXPECT_EQ(fs.op_log(),
            (std::vector<std::string>{
                "write:" + Path("f"), "append:" + Path("f"),
                "sync:" + Path("f"), "sync:" + Path("f"),
                "syncdir:" + dir_.string()}));
  EXPECT_EQ(RealFilesystem()->ReadFile(Path("f")).ValueOrDie(), "data+");
  EXPECT_FALSE(fs.crashed());
}

TEST_F(IoTest, StopCrashDropsTheOpAndKillsTheFs) {
  FaultFs fs(RealFilesystem());
  ASSERT_TRUE(fs.WriteFile(Path("f"), "keep").ok());
  auto file = fs.OpenWritable(Path("f")).ValueOrDie();
  CrashPlan plan;
  plan.crash_at_op = 1;  // The append below (op 0 is the write above... )
  fs.Arm(plan);          // ...but Arm resets the counter: op 0 is next.
  ASSERT_TRUE(fs.WriteFile(Path("g"), "other").ok());
  EXPECT_FALSE(fs.crashed());
  // Op 1: the crashing append. kStop = nothing reaches the disk.
  Status st = file->WriteAt(4, "lost");
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE(fs.crashed());
  EXPECT_EQ(RealFilesystem()->ReadFile(Path("f")).ValueOrDie(), "keep");
  // Every later mutating op fails; reads still work (recovery needs them).
  EXPECT_TRUE(fs.WriteFile(Path("h"), "x").IsIOError());
  EXPECT_TRUE(file->WriteAt(4, "x").IsIOError());
  EXPECT_TRUE(file->Sync().IsIOError());
  EXPECT_TRUE(fs.SyncFile(Path("f")).IsIOError());
  EXPECT_TRUE(fs.SyncDir(dir_.string()).IsIOError());
  EXPECT_TRUE(fs.Rename(Path("f"), Path("i")).IsIOError());
  EXPECT_TRUE(fs.ReadFile(Path("f")).ok());
}

TEST_F(IoTest, TornWriteLandsAStrictPrefix) {
  // A zero-filled file written in place, the way the WAL writes: the torn
  // write lands a strict prefix at its offset, and the zeros after stay.
  ASSERT_TRUE(
      RealFilesystem()->WriteFile(Path("torn"), std::string(200, '\0')).ok());
  FaultFs fs(RealFilesystem());
  auto file = fs.OpenWritable(Path("torn")).ValueOrDie();
  CrashPlan plan;
  plan.crash_at_op = 0;
  plan.mode = CrashMode::kTornWrite;
  fs.Arm(plan);
  std::string data(100, 'x');
  EXPECT_TRUE(file->WriteAt(10, data).IsIOError());
  EXPECT_TRUE(fs.crashed());
  std::string content = RealFilesystem()->ReadFile(Path("torn")).ValueOrDie();
  ASSERT_EQ(content.size(), 200u);
  const size_t last = content.find_last_not_of('\0');
  const size_t landed = last == std::string::npos ? 0 : last + 1 - 10;
  EXPECT_LT(landed, data.size());
  EXPECT_EQ(content.substr(10, landed), data.substr(0, landed));
  EXPECT_EQ(content.substr(0, 10), std::string(10, '\0'));
}

TEST_F(IoTest, BitFlipCorruptsExactlyOneBit) {
  FaultFs fs(RealFilesystem());
  CrashPlan plan;
  plan.crash_at_op = 0;
  plan.mode = CrashMode::kBitFlip;
  fs.Arm(plan);
  std::string data = "checksums must catch this";
  EXPECT_TRUE(fs.WriteFile(Path("flip"), data).IsIOError());
  std::string landed = RealFilesystem()->ReadFile(Path("flip")).ValueOrDie();
  ASSERT_EQ(landed.size(), data.size());
  size_t differing_bits = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    uint8_t diff = uint8_t(data[i]) ^ uint8_t(landed[i]);
    while (diff != 0) {
      differing_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(differing_bits, 1u);
  EXPECT_NE(Crc32(landed), Crc32(data));
}

TEST_F(IoTest, RecorderPlanNeverCrashes) {
  ASSERT_TRUE(RealFilesystem()->WriteFile(Path("busy"), "").ok());
  FaultFs fs(RealFilesystem());
  auto file = fs.OpenWritable(Path("busy")).ValueOrDie();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(file->WriteAt(static_cast<uint64_t>(i), "x").ok());
  }
  EXPECT_FALSE(fs.crashed());
  EXPECT_EQ(fs.op_count(), 50u);
  EXPECT_EQ(RealFilesystem()->ReadFile(Path("busy")).ValueOrDie(),
            std::string(50, 'x'));
}

}  // namespace
}  // namespace dwqa
