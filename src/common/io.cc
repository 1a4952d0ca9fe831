#include "common/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

namespace dwqa {

namespace {

namespace fs = std::filesystem;

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : data) {
    crc = kTable[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string Crc32Hex(std::string_view data) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", Crc32(data));
  return buf;
}

namespace {

/// An IOError naming `path` and the current errno.
Status ErrnoError(const std::string& what, const std::string& path) {
  const int err = errno;
  return Status::IOError(what + " '" + path + "': " + std::strerror(err));
}

/// \brief One O_WRONLY descriptor: pwrite(2) and fdatasync(2).
class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}
  ~PosixWritableFile() override { ::close(fd_); }
  PosixWritableFile(const PosixWritableFile&) = delete;
  PosixWritableFile& operator=(const PosixWritableFile&) = delete;

  Status WriteAt(uint64_t offset, std::string_view data) override {
    while (!data.empty()) {
      ssize_t n = ::pwrite(fd_, data.data(), data.size(),
                           static_cast<off_t>(offset));
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoError("pwrite failed on", path_);
      }
      data.remove_prefix(static_cast<size_t>(n));
      offset += static_cast<uint64_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) return ErrnoError("fdatasync failed on", path_);
    return Status::OK();
  }

 private:
  std::string path_;
  int fd_;
};

/// \brief Fs implementation over std::filesystem + POSIX fsync.
class RealFs : public Fs {
 public:
  Result<std::string> ReadFile(const std::string& path) override {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) return Status::IOError("read failed: " + path);
    return buffer.str();
  }

  Status WriteFile(const std::string& path,
                   const std::string& data) override {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open '" + path + "'");
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.flush();
    return out.good() ? Status::OK()
                      : Status::IOError("write failed: " + path);
  }

  Result<std::unique_ptr<WritableFile>> OpenWritable(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0) return ErrnoError("cannot open for writing", path);
    return std::unique_ptr<WritableFile>(new PosixWritableFile(path, fd));
  }

  Status SyncFile(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::IOError("cannot open for fsync: " + path);
    int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return Status::IOError("fsync failed: " + path);
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return ErrnoError("cannot open directory for fsync", dir);
    Status synced = ::fsync(fd) == 0
                        ? Status::OK()
                        : ErrnoError("fsync failed on directory", dir);
    ::close(fd);
    return synced;
  }

  Status Rename(const std::string& from, const std::string& to) override {
    std::error_code ec;
    fs::rename(from, to, ec);
    if (ec) {
      return Status::IOError("cannot rename '" + from + "' to '" + to +
                             "': " + ec.message());
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    std::error_code ec;
    if (!fs::remove(path, ec) || ec) {
      return Status::IOError("cannot remove '" + path + "'" +
                             (ec ? ": " + ec.message() : ""));
    }
    return Status::OK();
  }

  Status RemoveAll(const std::string& path) override {
    std::error_code ec;
    fs::remove_all(path, ec);
    if (ec) {
      return Status::IOError("cannot remove '" + path +
                             "': " + ec.message());
    }
    return Status::OK();
  }

  Status CreateDirs(const std::string& path) override {
    std::error_code ec;
    fs::create_directories(path, ec);
    if (ec) {
      return Status::IOError("cannot create directory '" + path +
                             "': " + ec.message());
    }
    return Status::OK();
  }

  bool Exists(const std::string& path) override {
    std::error_code ec;
    return fs::exists(path, ec);
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    std::error_code ec;
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      names.push_back(entry.path().filename().string());
    }
    if (ec) {
      return Status::IOError("cannot list '" + dir + "': " + ec.message());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    std::error_code ec;
    fs::resize_file(path, size, ec);
    if (ec) {
      return Status::IOError("cannot truncate '" + path +
                             "': " + ec.message());
    }
    return Status::OK();
  }
};

}  // namespace

Fs* RealFilesystem() {
  static RealFs real;
  return &real;
}

Status WriteFileAtomic(Fs* fs, const std::string& path,
                       const std::string& data) {
  fs = FsOrReal(fs);
  const std::string tmp = path + ".tmp";
  DWQA_RETURN_NOT_OK(fs->WriteFile(tmp, data));
  DWQA_RETURN_NOT_OK(fs->SyncFile(tmp));
  DWQA_RETURN_NOT_OK(fs->Rename(tmp, path));
  // The rename is an entry of the parent directory: durable once it is.
  const std::string parent = fs::path(path).parent_path().string();
  return fs->SyncDir(parent.empty() ? "." : parent);
}

const char* CrashModeName(CrashMode mode) {
  switch (mode) {
    case CrashMode::kStop: return "Stop";
    case CrashMode::kTornWrite: return "TornWrite";
    case CrashMode::kBitFlip: return "BitFlip";
  }
  return "?";
}

FaultFs::FaultFs(Fs* base, CrashPlan plan)
    : base_(FsOrReal(base)), plan_(plan), rng_(plan.seed) {}

void FaultFs::Arm(CrashPlan plan) {
  plan_ = plan;
  rng_ = Rng(plan.seed);
  crashed_ = false;
  op_count_ = 0;
  op_log_.clear();
}

FaultFs::OpVerdict FaultFs::BookOp(const std::string& op,
                                   const std::string& path,
                                   Status* failure) {
  op_log_.push_back(op + ":" + path);
  size_t index = op_count_++;
  if (crashed_) {
    *failure = Status::IOError("injected crash: filesystem is dead (" + op +
                               " '" + path + "')");
    return OpVerdict::kFail;
  }
  if (injector_ != nullptr) {
    Status injected = injector_->Hit(kFaultPointIoWrite);
    if (!injected.ok()) {
      *failure = injected;
      return OpVerdict::kFail;
    }
  }
  if (index == plan_.crash_at_op) {
    crashed_ = true;
    return OpVerdict::kCrashNow;
  }
  return OpVerdict::kProceed;
}

std::string FaultFs::MangleData(std::string_view data) {
  switch (plan_.mode) {
    case CrashMode::kStop:
      return "";
    case CrashMode::kTornWrite:
      // A strict prefix: at least 0, at most size-1 bytes survive (a torn
      // write that lands fully is indistinguishable from no crash).
      if (data.empty()) return "";
      return std::string(data.substr(0, rng_.Next() % data.size()));
    case CrashMode::kBitFlip: {
      if (data.empty()) return "";
      std::string flipped(data);
      size_t at = rng_.Next() % flipped.size();
      flipped[at] = static_cast<char>(
          flipped[at] ^ static_cast<char>(1u << (rng_.Next() % 8)));
      return flipped;
    }
  }
  return "";
}

Result<std::string> FaultFs::ReadFile(const std::string& path) {
  return base_->ReadFile(path);
}

Status FaultFs::WriteFile(const std::string& path, const std::string& data) {
  Status failure;
  switch (BookOp("write", path, &failure)) {
    case OpVerdict::kFail: return failure;
    case OpVerdict::kCrashNow: {
      std::string mangled = MangleData(data);
      if (!mangled.empty()) base_->WriteFile(path, mangled);
      return Status::IOError("injected crash during write '" + path + "'");
    }
    case OpVerdict::kProceed: break;
  }
  return base_->WriteFile(path, data);
}

/// \brief A WritableFile of the decorated Fs whose writes and syncs book
/// ops of the FaultFs that opened it.
class FaultFs::File : public WritableFile {
 public:
  File(FaultFs* fs, std::string path, std::unique_ptr<WritableFile> base)
      : fs_(fs), path_(std::move(path)), base_(std::move(base)) {}

  Status WriteAt(uint64_t offset, std::string_view data) override {
    Status failure;
    switch (fs_->BookOp("append", path_, &failure)) {
      case OpVerdict::kFail: return failure;
      case OpVerdict::kCrashNow: {
        std::string mangled = fs_->MangleData(data);
        if (!mangled.empty()) (void)base_->WriteAt(offset, mangled);
        return Status::IOError("injected crash during append '" + path_ +
                               "'");
      }
      case OpVerdict::kProceed: break;
    }
    return base_->WriteAt(offset, data);
  }

  Status Sync() override { return fs_->SyncOpenFile(path_, base_.get()); }

 private:
  FaultFs* fs_;
  std::string path_;
  std::unique_ptr<WritableFile> base_;
};

Result<std::unique_ptr<WritableFile>> FaultFs::OpenWritable(
    const std::string& path) {
  DWQA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                        base_->OpenWritable(path));
  return std::unique_ptr<WritableFile>(
      new File(this, path, std::move(base)));
}

Status FaultFs::SyncOpenFile(const std::string& path, WritableFile* base) {
  Status failure;
  switch (BookOp("sync", path, &failure)) {
    case OpVerdict::kFail: return failure;
    case OpVerdict::kCrashNow:
      return Status::IOError("injected crash during sync '" + path + "'");
    case OpVerdict::kProceed: break;
  }
  return base->Sync();
}

Status FaultFs::SyncDir(const std::string& dir) {
  Status failure;
  switch (BookOp("syncdir", dir, &failure)) {
    case OpVerdict::kFail: return failure;
    case OpVerdict::kCrashNow:
      return Status::IOError("injected crash during syncdir '" + dir + "'");
    case OpVerdict::kProceed: break;
  }
  return base_->SyncDir(dir);
}

Status FaultFs::SyncFile(const std::string& path) {
  Status failure;
  switch (BookOp("sync", path, &failure)) {
    case OpVerdict::kFail: return failure;
    case OpVerdict::kCrashNow:
      // A sync carries no data: every crash mode degrades to kStop (the
      // barrier simply never happened).
      return Status::IOError("injected crash during sync '" + path + "'");
    case OpVerdict::kProceed: break;
  }
  return base_->SyncFile(path);
}

Status FaultFs::Rename(const std::string& from, const std::string& to) {
  Status failure;
  switch (BookOp("rename", from, &failure)) {
    case OpVerdict::kFail: return failure;
    case OpVerdict::kCrashNow:
      // rename(2) is atomic: it either fully happened before the crash or
      // not at all. kStop semantics — the rename never lands.
      return Status::IOError("injected crash during rename '" + from + "'");
    case OpVerdict::kProceed: break;
  }
  return base_->Rename(from, to);
}

Status FaultFs::RemoveFile(const std::string& path) {
  Status failure;
  switch (BookOp("remove", path, &failure)) {
    case OpVerdict::kFail: return failure;
    case OpVerdict::kCrashNow:
      return Status::IOError("injected crash during remove '" + path + "'");
    case OpVerdict::kProceed: break;
  }
  return base_->RemoveFile(path);
}

Status FaultFs::RemoveAll(const std::string& path) {
  Status failure;
  switch (BookOp("remove_all", path, &failure)) {
    case OpVerdict::kFail: return failure;
    case OpVerdict::kCrashNow:
      return Status::IOError("injected crash during remove_all '" + path +
                             "'");
    case OpVerdict::kProceed: break;
  }
  return base_->RemoveAll(path);
}

Status FaultFs::CreateDirs(const std::string& path) {
  Status failure;
  switch (BookOp("mkdir", path, &failure)) {
    case OpVerdict::kFail: return failure;
    case OpVerdict::kCrashNow:
      return Status::IOError("injected crash during mkdir '" + path + "'");
    case OpVerdict::kProceed: break;
  }
  return base_->CreateDirs(path);
}

bool FaultFs::Exists(const std::string& path) { return base_->Exists(path); }

Result<std::vector<std::string>> FaultFs::ListDir(const std::string& dir) {
  return base_->ListDir(dir);
}

Status FaultFs::TruncateFile(const std::string& path, uint64_t size) {
  Status failure;
  switch (BookOp("truncate", path, &failure)) {
    case OpVerdict::kFail: return failure;
    case OpVerdict::kCrashNow:
      return Status::IOError("injected crash during truncate '" + path +
                             "'");
    case OpVerdict::kProceed: break;
  }
  return base_->TruncateFile(path, size);
}

}  // namespace dwqa
