#include "dw/snapshot.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"
#include "dw/persistence.h"

namespace dwqa {
namespace dw {

namespace {

constexpr char kManifestMagic[] = "dwqa-snapshot";
constexpr char kManifestVersion[] = "1";
constexpr char kManifestFile[] = "MANIFEST";
constexpr char kCommitsFile[] = "commits.txt";

std::string SnapshotDirName(Lsn lsn) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snap-%020llu",
                static_cast<unsigned long long>(lsn));
  return buf;
}

bool ParseUint64(const std::string& s, uint64_t* out) {
  if (!IsDigits(s) || s.size() > 20) return false;
  errno = 0;
  char* end = nullptr;
  uint64_t v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// The form Crc32Hex writes: eight lowercase hex digits.
bool IsCrcHex(const std::string& s) {
  if (s.size() != 8) return false;
  for (char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

bool IsSnapshotDirName(const std::string& name, Lsn* lsn) {
  if (!StartsWith(name, "snap-") || EndsWith(name, ".tmp")) return false;
  std::string digits = name.substr(5);
  if (digits.size() != 20) return false;
  return ParseUint64(digits, lsn);
}

}  // namespace

std::string ManifestSerde::ToText(const SnapshotManifest& manifest) {
  std::string out;
  out += std::string(kManifestMagic) + "\t" + kManifestVersion + "\n";
  out += "lsn\t" + std::to_string(manifest.lsn) + "\n";
  for (const ManifestEntry& entry : manifest.entries) {
    out += "file\t" + entry.file + "\t" + std::to_string(entry.size) + "\t" +
           entry.crc_hex + "\n";
  }
  return out;
}

Result<SnapshotManifest> ManifestSerde::FromText(const std::string& text) {
  auto malformed = [](size_t line_no, const std::string& why) {
    return Status::Corruption("snapshot manifest line " +
                              std::to_string(line_no) + ": " + why);
  };
  SnapshotManifest manifest;
  std::vector<std::string> lines = Split(text, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) return malformed(1, "empty manifest");
  {
    std::vector<std::string> fields = Split(lines[0], '\t');
    if (fields.size() != 2 || fields[0] != kManifestMagic ||
        fields[1] != kManifestVersion) {
      return malformed(1, "bad magic/version");
    }
  }
  bool saw_lsn = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    const size_t line_no = i + 1;
    std::vector<std::string> fields = Split(lines[i], '\t');
    if (fields[0] == "lsn") {
      if (fields.size() != 2 || !ParseUint64(fields[1], &manifest.lsn)) {
        return malformed(line_no, "bad 'lsn' line");
      }
      if (saw_lsn) return malformed(line_no, "duplicate 'lsn' line");
      saw_lsn = true;
    } else if (fields[0] == "file") {
      ManifestEntry entry;
      if (fields.size() != 4 || fields[1].empty() ||
          !ParseUint64(fields[2], &entry.size) || !IsCrcHex(fields[3])) {
        return malformed(line_no, "bad 'file' line");
      }
      entry.file = fields[1];
      entry.crc_hex = fields[3];
      manifest.entries.push_back(std::move(entry));
    } else {
      return malformed(line_no, "unknown tag '" + fields[0] + "'");
    }
  }
  if (!saw_lsn) return malformed(lines.size(), "missing 'lsn' line");
  return manifest;
}

Result<std::string> SnapshotWriter::Write(const std::string& dir,
                                          const Warehouse& warehouse,
                                          const CommitSet& commits, Lsn lsn,
                                          Fs* fs) {
  fs = FsOrReal(fs);
  DWQA_RETURN_NOT_OK(fs->CreateDirs(dir));
  const std::string final_dir = dir + "/" + SnapshotDirName(lsn);
  const std::string tmp_dir = final_dir + ".tmp";
  if (fs->Exists(final_dir)) {
    // Same covering LSN, same warehouse state: the snapshot is already
    // committed (a retried flush after a crash between rename and ack).
    return final_dir;
  }
  if (fs->Exists(tmp_dir)) DWQA_RETURN_NOT_OK(fs->RemoveAll(tmp_dir));
  DWQA_ASSIGN_OR_RETURN(std::string commits_text,
                        CommitSetSerde::ToText(commits));

  // Nothing in the build directory is visible until its rename, so each
  // file is written in place and synced as it is rendered, its manifest
  // entry taken from the bytes in hand, and one directory sync before the
  // rename makes all their entries durable.
  SnapshotManifest manifest;
  manifest.lsn = lsn;
  auto write = [&](const WarehousePersistence::File& file) -> Status {
    const std::string path = tmp_dir + "/" + file.name;
    DWQA_RETURN_NOT_OK(fs->WriteFile(path, file.bytes));
    DWQA_RETURN_NOT_OK(fs->SyncFile(path));
    // The manifest covers every file but itself.
    if (file.name != kManifestFile) {
      manifest.entries.push_back(
          ManifestEntry{file.name, file.bytes.size(), Crc32Hex(file.bytes)});
    }
    return Status::OK();
  };
  DWQA_RETURN_NOT_OK(fs->CreateDirs(tmp_dir));
  DWQA_RETURN_NOT_OK(WarehousePersistence::Render(warehouse, write));
  DWQA_RETURN_NOT_OK(write({kCommitsFile, std::move(commits_text)}));
  // Manifest entries in file-name order, the order a listing gives.
  std::sort(manifest.entries.begin(), manifest.entries.end(),
            [](const auto& a, const auto& b) { return a.file < b.file; });
  DWQA_RETURN_NOT_OK(write({kManifestFile, ManifestSerde::ToText(manifest)}));
  DWQA_RETURN_NOT_OK(fs->SyncDir(tmp_dir));
  DWQA_RETURN_NOT_OK(fs->Rename(tmp_dir, final_dir));
  // The commit is the rename, an entry of `dir`: durable once `dir` is.
  DWQA_RETURN_NOT_OK(fs->SyncDir(dir));
  return final_dir;
}

Result<std::vector<SnapshotInfo>> ListSnapshots(
    const std::string& dir, Fs* fs, std::vector<std::string>* tmp_leftovers) {
  fs = FsOrReal(fs);
  std::vector<SnapshotInfo> snapshots;
  if (!fs->Exists(dir)) return snapshots;
  DWQA_ASSIGN_OR_RETURN(std::vector<std::string> names, fs->ListDir(dir));
  for (const std::string& name : names) {
    Lsn lsn = 0;
    if (IsSnapshotDirName(name, &lsn)) {
      snapshots.push_back(SnapshotInfo{name, lsn});
    } else if (StartsWith(name, "snap-") && EndsWith(name, ".tmp") &&
               tmp_leftovers != nullptr) {
      tmp_leftovers->push_back(name);
    }
  }
  // ListDir sorts lexicographically; zero-padded LSNs make that oldest
  // first already, but keep the contract explicit.
  return snapshots;
}

Result<SnapshotManifest> VerifySnapshot(const std::string& snapshot_dir,
                                        Fs* fs) {
  fs = FsOrReal(fs);
  auto manifest_text = fs->ReadFile(snapshot_dir + "/" + kManifestFile);
  if (!manifest_text.ok()) {
    return Status::Corruption("snapshot '" + snapshot_dir +
                              "' has no readable MANIFEST: " +
                              manifest_text.status().message());
  }
  DWQA_ASSIGN_OR_RETURN(SnapshotManifest manifest,
                        ManifestSerde::FromText(*manifest_text));
  for (const ManifestEntry& entry : manifest.entries) {
    const std::string path = snapshot_dir + "/" + entry.file;
    auto content = fs->ReadFile(path);
    if (!content.ok()) {
      return Status::Corruption("snapshot file '" + path +
                                "' unreadable: " +
                                content.status().message());
    }
    if (content->size() != entry.size) {
      return Status::Corruption(
          "snapshot file '" + path + "' size " +
          std::to_string(content->size()) + " != manifest size " +
          std::to_string(entry.size));
    }
    if (Crc32Hex(*content) != entry.crc_hex) {
      return Status::Corruption("snapshot file '" + path +
                                "' CRC mismatch (bit rot?)");
    }
    if (entry.file == kCommitsFile) {
      DWQA_ASSIGN_OR_RETURN(manifest.commits,
                            CommitSetSerde::FromText(*content));
    }
  }
  return manifest;
}

}  // namespace dw
}  // namespace dwqa
