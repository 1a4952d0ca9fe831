#ifndef DWQA_COMMON_IO_H_
#define DWQA_COMMON_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace dwqa {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`. The per-record
/// checksum of the write-ahead log and the per-file checksum of snapshot
/// manifests (dw/wal.h, dw/snapshot.h).
uint32_t Crc32(std::string_view data);

/// Crc32 rendered as 8 lowercase hex digits ("414fa339").
std::string Crc32Hex(std::string_view data);

/// \brief An open file written in place: one descriptor kept across
/// writes, so a log pays for the open once and its commit is one data sync.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Writes `data` at byte `offset`, extending the file when it ends
  /// before `offset + data.size()`.
  virtual Status WriteAt(uint64_t offset, std::string_view data) = 0;
  /// fdatasync(2): the durability barrier of an open file. Data written
  /// before a successful Sync survives a crash after it; metadata that
  /// reading it back does not need (mtime) may not.
  virtual Status Sync() = 0;
};

/// \brief The file-system seam of the durability layer.
///
/// Every byte the WAL, snapshot, recovery and persistence code moves goes
/// through one of these virtual calls, so tests can substitute a FaultFs
/// that crashes, tears or bit-flips at an exact operation — the same
/// substitution trick the FaultInjector plays on the synthetic web's
/// unreliability, applied to the disk. Production code passes nullptr and
/// gets RealFilesystem().
class Fs {
 public:
  virtual ~Fs() = default;

  /// Whole-file read.
  virtual Result<std::string> ReadFile(const std::string& path) = 0;
  /// Create-or-truncate write of the whole file (flushed, not fsynced).
  virtual Status WriteFile(const std::string& path,
                           const std::string& data) = 0;
  /// Opens the existing file `path` for in-place writes.
  virtual Result<std::unique_ptr<WritableFile>> OpenWritable(
      const std::string& path) = 0;
  /// fsync(2) of an existing file: the durability barrier. Data written
  /// before a successful SyncFile must survive a crash after it.
  virtual Status SyncFile(const std::string& path) = 0;
  /// fsync(2) of a directory: the entries created, renamed or removed in
  /// `dir` before a successful SyncDir survive a crash after it.
  virtual Status SyncDir(const std::string& dir) = 0;
  /// Atomic replace (rename(2) semantics on POSIX).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  /// Recursive removal of a file or directory tree (missing target is OK).
  virtual Status RemoveAll(const std::string& path) = 0;
  virtual Status CreateDirs(const std::string& path) = 0;
  virtual bool Exists(const std::string& path) = 0;
  /// Entry names (not full paths) of a directory, sorted.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;
  /// Truncates `path` to `size` bytes (torn-tail removal).
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;
};

/// The process-wide real filesystem (std::filesystem + POSIX fsync).
Fs* RealFilesystem();

/// `fs` if non-null, else RealFilesystem() — the convention every
/// durability entry point uses for its optional Fs parameter.
inline Fs* FsOrReal(Fs* fs) { return fs != nullptr ? fs : RealFilesystem(); }

/// Atomic whole-file replace: write `path`.tmp, fsync it, rename onto
/// `path`, fsync the parent directory. After a crash at any point the
/// previous content of `path` is intact or the new content is fully
/// visible — never a torn mix — and once it returns OK the new content
/// stays.
Status WriteFileAtomic(Fs* fs, const std::string& path,
                       const std::string& data);

/// \brief How an injected crash manifests at the crash-point operation.
enum class CrashMode {
  /// The operation does not happen at all (power loss before the write
  /// reached the disk): cleanest crash, nothing torn.
  kStop,
  /// The crashing write lands as a prefix of its data (a torn write: the
  /// kernel flushed part of the buffer before power died).
  kTornWrite,
  /// The crashing write "succeeds" but one byte is flipped (silent media
  /// corruption), and the crash follows immediately — checksums, not
  /// the writer, must catch this.
  kBitFlip,
};

const char* CrashModeName(CrashMode mode);

/// \brief One planned crash: at mutating operation number `crash_at_op`
/// (0-based, in FaultFs's op counter), manifest as `mode`.
struct CrashPlan {
  /// Op index at which to crash; SIZE_MAX (default) never crashes and
  /// turns the FaultFs into a pure recorder.
  size_t crash_at_op = static_cast<size_t>(-1);
  CrashMode mode = CrashMode::kStop;
  /// Seed of the torn-prefix / flipped-byte draws.
  uint64_t seed = 1;
};

/// \brief A crash-injecting, operation-recording Fs decorator.
///
/// Every *mutating* operation (write, append, sync, syncdir, rename,
/// remove, create-dirs, truncate) increments an op counter and appends an
/// "op:path" line to the op log; reads pass through untouched. A
/// WritableFile it opens books its WriteAt as "append" and its Sync as
/// "sync" on the file's path; opening one books nothing. When the
/// counter reaches CrashPlan::crash_at_op the planned crash fires: the
/// op is dropped, torn or bit-flipped per the mode, and every later
/// mutating op fails with kIOError("injected crash") — the moral
/// equivalent of kill -9 for code that cannot actually die mid-test.
/// The crash-point sweep (tests/dw/crash_sweep_test.cc) first runs a
/// workload with a recorder plan to enumerate ops, then replays it once
/// per op index and asserts recovery restores the committed state.
///
/// An optional FaultInjector adds *probabilistic* transient IO failures
/// at the kFaultPointIoWrite point, for chaos runs where the disk is
/// flaky rather than dead.
class FaultFs : public Fs {
 public:
  /// Decorates `base` (not owned; nullptr = RealFilesystem()).
  explicit FaultFs(Fs* base = nullptr, CrashPlan plan = {});

  /// Re-arms the plan and resets the op counter, log and crashed flag.
  void Arm(CrashPlan plan);

  /// True once the planned crash has fired.
  bool crashed() const { return crashed_; }
  /// Mutating operations attempted so far (the crash op included).
  size_t op_count() const { return op_count_; }
  /// "append:wal-000...1.log"-style trace of every mutating op attempted.
  const std::vector<std::string>& op_log() const { return op_log_; }

  /// Arms probabilistic transient faults at kFaultPointIoWrite (chaos
  /// flavour; independent of the crash plan). Not owned.
  void set_injector(FaultInjector* injector) { injector_ = injector; }

  Result<std::string> ReadFile(const std::string& path) override;
  Status WriteFile(const std::string& path, const std::string& data) override;
  Result<std::unique_ptr<WritableFile>> OpenWritable(
      const std::string& path) override;
  Status SyncFile(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status RemoveAll(const std::string& path) override;
  Status CreateDirs(const std::string& path) override;
  bool Exists(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;

 protected:
  /// The Sync of a WritableFile this Fs opened on `path`: books "sync",
  /// then syncs `base`, the file the decorated Fs opened. A subclass
  /// overrides it to fail commit syncs.
  virtual Status SyncOpenFile(const std::string& path, WritableFile* base);

 private:
  class File;

  /// Books one mutating op named `op` on `path`. Returns, in order of
  /// precedence: the dead-after-crash error, the injected transient fault,
  /// the crash verdict (kCrashNow), or OK.
  enum class OpVerdict { kProceed, kCrashNow, kFail };
  OpVerdict BookOp(const std::string& op, const std::string& path,
                   Status* failure);
  /// Applies the crash mode to a data-carrying op. Returns the bytes that
  /// should still reach the base Fs ("" for kStop).
  std::string MangleData(std::string_view data);

  Fs* base_;
  CrashPlan plan_;
  FaultInjector* injector_ = nullptr;
  Rng rng_{1};
  bool crashed_ = false;
  size_t op_count_ = 0;
  std::vector<std::string> op_log_;
};

}  // namespace dwqa

#endif  // DWQA_COMMON_IO_H_
